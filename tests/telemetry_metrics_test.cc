// MetricRegistry unit tests: polled-gauge registration, replacement, lookup
// and registration order.
#include <gtest/gtest.h>

#include "telemetry/metrics.h"

namespace floc::telemetry {
namespace {

// A counter-like and a gauge-like value, both fed through gauge_fn over a
// local the way components publish their own state.
TEST(MetricRegistry, CounterGaugeBasics) {
  MetricRegistry reg;
  double drops = 0.0;
  reg.gauge_fn("floc.drops.total", [&drops] { return drops; });
  drops += 1;
  drops += 4;
  EXPECT_DOUBLE_EQ(reg.value("floc.drops.total"), 5.0);

  double packets = 0.0;
  reg.gauge_fn("floc.queue.packets", [&packets] { return packets; });
  packets = 17.0;
  EXPECT_DOUBLE_EQ(reg.value("floc.queue.packets"), 17.0);

  double polled = 3.0;
  reg.gauge_fn("sim.pending", [&polled] { return polled; });
  EXPECT_DOUBLE_EQ(reg.value("sim.pending"), 3.0);
  polled = 8.0;
  EXPECT_DOUBLE_EQ(reg.value("sim.pending"), 8.0);
  // Re-registering a gauge_fn replaces the callback.
  reg.gauge_fn("sim.pending", [] { return -1.0; });
  EXPECT_DOUBLE_EQ(reg.value("sim.pending"), -1.0);

  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.find("nope"), nullptr);
  EXPECT_DOUBLE_EQ(reg.value("nope"), 0.0);
  // Registration order is stable.
  EXPECT_EQ(reg.metrics()[0].name, "floc.drops.total");
  EXPECT_EQ(reg.metrics()[2].name, "sim.pending");
}

}  // namespace
}  // namespace floc::telemetry
