#include "core/conformance.h"

#include <gtest/gtest.h>

#include "core/flow_table.h"

namespace floc {
namespace {

OriginPathState state_of(const PathId& path, double beta = 0.2) {
  return OriginPathState(path, path.key(), beta);
}

TEST(Conformance, AttackMtdClassifier) {
  EXPECT_TRUE(is_attack_mtd(0.1, 1.0, 0.5));
  EXPECT_FALSE(is_attack_mtd(0.6, 1.0, 0.5));
  EXPECT_FALSE(is_attack_mtd(1.5, 1.0, 0.5));  // better than reference
}

TEST(Conformance, LegitimateFraction) {
  EXPECT_DOUBLE_EQ(legitimate_fraction(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(legitimate_fraction(5, 10), 0.5);
  EXPECT_DOUBLE_EQ(legitimate_fraction(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(legitimate_fraction(0, 0), 1.0);   // empty path conformant
  EXPECT_DOUBLE_EQ(legitimate_fraction(15, 10), 0.0);  // clamped
}

TEST(OriginPathState, ConformanceEwmaEqIV6) {
  OriginPathState st = state_of(PathId::of({1, 2}), /*beta=*/0.2);
  EXPECT_DOUBLE_EQ(st.conformance(), 1.0);  // starts fully conformant
  st.update_conformance(0.0);
  EXPECT_DOUBLE_EQ(st.conformance(), 0.2 * 0.0 + 0.8 * 1.0);
  st.update_conformance(0.0);
  EXPECT_NEAR(st.conformance(), 0.64, 1e-12);
}

TEST(OriginPathState, FlowLifecycle) {
  OriginPathState st = state_of(PathId::of({1}));
  st.touch_flow(100, 1.0);
  st.touch_flow(200, 1.5);
  st.touch_flow(100, 2.0);  // refresh
  EXPECT_EQ(st.flow_count(), 2u);
  EXPECT_NE(st.find_flow(100), nullptr);
  EXPECT_EQ(st.find_flow(300), nullptr);

  // Expire with timeout 1.0 at t=2.7: flow 200 (last 1.5) goes.
  st.expire_flows(2.7, 1.0);
  EXPECT_EQ(st.flow_count(), 1u);
  EXPECT_NE(st.find_flow(100), nullptr);
  EXPECT_EQ(st.find_flow(200), nullptr);
}

TEST(OriginPathState, RttAveraging) {
  OriginPathState st = state_of(PathId::of({1}));
  EXPECT_FALSE(st.has_rtt());
  EXPECT_DOUBLE_EQ(st.mean_rtt(0.123), 0.123);  // fallback
  st.add_rtt_sample(0.1);
  EXPECT_TRUE(st.has_rtt());
  EXPECT_DOUBLE_EQ(st.mean_rtt(0.5), 0.1);
  st.add_rtt_sample(0.2);
  EXPECT_GT(st.mean_rtt(0.5), 0.1);
  EXPECT_LT(st.mean_rtt(0.5), 0.2);
}

TEST(OriginPathState, FirstSeenPreserved) {
  OriginPathState st = state_of(PathId::of({1}));
  auto& fr = st.touch_flow(1, 5.0);
  EXPECT_DOUBLE_EQ(fr.first_seen, 5.0);
  auto& fr2 = st.touch_flow(1, 9.0);
  EXPECT_DOUBLE_EQ(fr2.first_seen, 5.0);
  EXPECT_DOUBLE_EQ(fr2.last_seen, 9.0);
}

TEST(OriginPathState, ReusedFlowSlotReadsAsAFreshRecord) {
  // An expired record's slot (and its grown MTD ring) is reused by the next
  // new key; the new record must be indistinguishable from a fresh one.
  OriginPathState st = state_of(PathId::of({1}));
  FlowRecord& old = st.touch_flow(7, 1.0);
  old.syn_time = 0.9;
  old.rtt_sampled = true;
  old.bytes_arrived = 3000.0;
  old.drops = 2;
  old.total_drops = 40;
  old.rate_bps = 1e6;
  old.mtd.set_window(3.0);
  for (int i = 0; i < 40; ++i) old.mtd.record_drop(1.0 + 0.001 * i);
  st.expire_flows(10.0, 1.0);
  ASSERT_EQ(st.flow_count(), 0u);

  const FlowRecord& fr = st.touch_flow(8, 10.0);
  const FlowRecord fresh{};
  EXPECT_DOUBLE_EQ(fr.first_seen, 10.0);
  EXPECT_DOUBLE_EQ(fr.last_seen, 10.0);
  EXPECT_EQ(fr.syn_time, fresh.syn_time);
  EXPECT_EQ(fr.rtt_sampled, fresh.rtt_sampled);
  EXPECT_EQ(fr.bytes_arrived, fresh.bytes_arrived);
  EXPECT_EQ(fr.drops, fresh.drops);
  EXPECT_EQ(fr.total_drops, fresh.total_drops);
  EXPECT_EQ(fr.rate_bps, fresh.rate_bps);
  EXPECT_EQ(fr.mtd.window(), fresh.mtd.window());
  EXPECT_EQ(st.find_flow(8)->mtd.drops_in_window(10.0), 0u);
  EXPECT_EQ(st.find_flow(7), nullptr);
}

}  // namespace
}  // namespace floc
