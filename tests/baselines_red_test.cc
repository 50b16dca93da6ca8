#include "baselines/red_queue.h"

#include <gtest/gtest.h>

namespace floc {
namespace {

RedConfig small_red() {
  RedConfig cfg;
  cfg.buffer_packets = 100;
  cfg.min_th = 10.0;
  cfg.max_th = 40.0;
  cfg.weight = 0.2;  // fast-moving average for tests
  cfg.max_p = 0.1;
  cfg.link_bandwidth = mbps(10);
  return cfg;
}

Packet pkt(FlowId f = 1) {
  Packet p;
  p.flow = f;
  return p;
}

TEST(RedQueue, NoDropsBelowMinThreshold) {
  RedQueue q(small_red());
  for (int i = 0; i < 9; ++i) EXPECT_TRUE(q.enqueue(pkt(), 0.001 * i));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(RedQueue, EarlyDropsBetweenThresholds) {
  RedQueue q(small_red());
  int dropped = 0;
  for (int i = 0; i < 500; ++i) {
    if (!q.enqueue(pkt(), 0.0001 * i)) ++dropped;
    if (q.packet_count() > 30) q.dequeue(0.0001 * i);  // hold ~30 in queue
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(q.avg_queue(), small_red().min_th);
}

TEST(RedQueue, HardDropsAboveBuffer) {
  RedQueue q(small_red());
  for (int i = 0; i < 300; ++i) q.enqueue(pkt(), 0.0);
  EXPECT_LE(q.packet_count(), 100u);
}

TEST(RedQueue, DequeueFifo) {
  RedQueue q(small_red());
  q.enqueue(pkt(1), 0.0);
  q.enqueue(pkt(2), 0.0);
  EXPECT_EQ(q.dequeue(0.0)->flow, 1u);
  EXPECT_EQ(q.dequeue(0.0)->flow, 2u);
  EXPECT_FALSE(q.dequeue(0.0));
}

TEST(RedQueue, AvgDecaysWhenIdle) {
  RedQueue q(small_red());
  for (int i = 0; i < 60; ++i) q.enqueue(pkt(), 0.001 * i);
  const double avg_busy = q.avg_queue();
  while (!q.empty()) q.dequeue(0.1);
  // Long idle period, then one arrival: the average must have decayed.
  q.enqueue(pkt(), 10.0);
  EXPECT_LT(q.avg_queue(), avg_busy);
}

TEST(RedCore, DropProbabilityIncreasesWithQueue) {
  RedConfig cfg = small_red();
  cfg.weight = 1.0;  // instantaneous
  int drops_small = 0, drops_large = 0;
  const int trials = 2000;
  {
    RedCore core(cfg);
    for (int i = 0; i < trials; ++i) drops_small += core.should_drop(15, 0.0);
  }
  {
    RedCore core(cfg);
    for (int i = 0; i < trials; ++i) drops_large += core.should_drop(35, 0.0);
  }
  EXPECT_GT(drops_large, drops_small);
}

TEST(RedCore, GentleRampAboveMaxTh) {
  RedConfig cfg = small_red();
  cfg.weight = 1.0;
  cfg.gentle = true;
  RedCore core(cfg);
  int drops = 0;
  for (int i = 0; i < 500; ++i) drops += core.should_drop(60, 0.0);
  // Between max_th (40) and 2*max_th (80): drop rate well above max_p.
  EXPECT_GT(drops, 100);
  int all = 0;
  for (int i = 0; i < 100; ++i) all += core.should_drop(100, 0.0);
  EXPECT_EQ(all, 100);  // beyond 2*max_th: always drop
}

}  // namespace
}  // namespace floc
