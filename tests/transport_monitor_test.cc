#include "transport/flow_monitor.h"

#include <gtest/gtest.h>

namespace floc {
namespace {

FlowLabel legit(const std::string& path, bool attack_path = false) {
  return FlowLabel{FlowClass::kLegitimate, attack_path, 0, path};
}
FlowLabel attacker(const std::string& path) {
  return FlowLabel{FlowClass::kAttack, true, 0, path};
}

TEST(FlowMonitor, FlowBpsBetweenSnapshots) {
  FlowMonitor m;
  m.register_flow(1, legit("p0"));
  m.on_deliver(1, 1000.0);
  m.snapshot("a", 1.0);
  m.on_deliver(1, 3000.0);
  m.snapshot("b", 3.0);
  EXPECT_DOUBLE_EQ(m.flow_bps(1, "a", "b"), 3000.0 * 8.0 / 2.0);
}

TEST(FlowMonitor, IgnoresUnregisteredFlows) {
  FlowMonitor m;
  m.register_flow(1, legit("p0"));
  m.on_deliver(99, 1000.0);
  m.snapshot("a", 0.0);
  m.snapshot("b", 1.0);
  EXPECT_DOUBLE_EQ(m.flow_bps(1, "a", "b"), 0.0);
}

TEST(FlowMonitor, ClassBpsByPredicate) {
  FlowMonitor m;
  m.register_flow(1, legit("p0"));
  m.register_flow(2, legit("p1", /*attack_path=*/true));
  m.register_flow(3, attacker("p1"));
  m.snapshot("a", 0.0);
  m.on_deliver(1, 1000.0);
  m.on_deliver(2, 2000.0);
  m.on_deliver(3, 4000.0);
  m.snapshot("b", 1.0);
  EXPECT_DOUBLE_EQ(m.class_bps(FlowMonitor::is_legit_on_legit_path, "a", "b"),
                   8000.0);
  EXPECT_DOUBLE_EQ(m.class_bps(FlowMonitor::is_legit_on_attack_path, "a", "b"),
                   16000.0);
  EXPECT_DOUBLE_EQ(m.class_bps(FlowMonitor::is_attack, "a", "b"), 32000.0);
}

TEST(FlowMonitor, BandwidthCdf) {
  FlowMonitor m;
  for (FlowId f = 1; f <= 4; ++f) m.register_flow(f, legit("p"));
  m.snapshot("a", 0.0);
  for (FlowId f = 1; f <= 4; ++f) m.on_deliver(f, 1000.0 * static_cast<double>(f));
  m.snapshot("b", 1.0);
  Cdf c = m.bandwidth_cdf(FlowMonitor::is_legit_on_legit_path, "a", "b");
  EXPECT_EQ(c.count(), 4u);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 8000.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 32000.0);
}

TEST(FlowMonitor, PathBps) {
  FlowMonitor m;
  m.register_flow(1, legit("p0"));
  m.register_flow(2, legit("p0"));
  m.register_flow(3, legit("p1"));
  m.snapshot("a", 0.0);
  m.on_deliver(1, 500.0);
  m.on_deliver(2, 500.0);
  m.on_deliver(3, 1000.0);
  m.snapshot("b", 1.0);
  const auto by_path = m.path_bps("a", "b");
  EXPECT_DOUBLE_EQ(by_path.at("p0"), 8000.0);
  EXPECT_DOUBLE_EQ(by_path.at("p1"), 8000.0);
}

TEST(FlowMonitor, SnapshotMissingThrows) {
  FlowMonitor m;
  m.register_flow(1, legit("p0"));
  m.snapshot("a", 0.0);
  EXPECT_THROW(m.flow_bps(1, "a", "nope"), std::out_of_range);
}

TEST(FlowMonitor, FlowsRegisteredAfterSnapshotCountFromZero) {
  FlowMonitor m;
  m.register_flow(1, legit("p0"));
  m.snapshot("a", 0.0);
  m.register_flow(2, legit("p0"));
  m.on_deliver(2, 1000.0);
  m.snapshot("b", 1.0);
  EXPECT_DOUBLE_EQ(m.flow_bps(2, "a", "b"), 8000.0);
}

}  // namespace
}  // namespace floc
