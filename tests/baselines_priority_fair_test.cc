#include "baselines/priority_fair.h"

#include <gtest/gtest.h>

#include <set>

namespace floc {
namespace {

PriorityFairConfig small_cfg() {
  PriorityFairConfig cfg;
  cfg.buffer_packets = 50;
  cfg.link_bandwidth = mbps(10);
  cfg.rate_interval = 0.1;
  return cfg;
}

Packet pkt(FlowId f) {
  Packet p;
  p.flow = f;
  return p;
}

TEST(PriorityFairQueue, LegitServicedBeforeAttackExcess) {
  std::set<FlowId> legit{1};
  PriorityFairQueue q(small_cfg(),
                      [&legit](FlowId f) { return legit.count(f) != 0; });
  double t = 0.0;
  // Warm one interval so flows_seen_ reflects both flows.
  for (int i = 0; i < 200; ++i) {
    t = i * 0.001;
    q.enqueue(pkt(1), t);
    q.enqueue(pkt(2), t);
    q.dequeue(t);
    q.dequeue(t);
  }
  // Flood with attack packets beyond the flow's fair share (fair is ~41
  // packets per 0.1 s interval at 10 Mbps / 2 flows), then one legit packet:
  // it must be serviced ahead of the attack flow's out-of-profile backlog.
  while (!q.empty()) q.dequeue(t);
  const int kFlood = 45;
  for (int i = 0; i < kFlood; ++i) q.enqueue(pkt(2), t + 0.001);
  q.enqueue(pkt(1), t + 0.002);
  int position = -1;
  for (int i = 0; i <= kFlood; ++i) {
    auto out = q.dequeue(t + 0.003);
    ASSERT_TRUE(out);
    if (out->flow == 1) {
      position = i;
      break;
    }
  }
  ASSERT_GE(position, 0);
  EXPECT_LT(position, kFlood);  // ahead of the low-priority tail
}

TEST(PriorityFairQueue, HighPriorityEvictsLowOnOverflow) {
  std::set<FlowId> legit{1};
  PriorityFairQueue q(small_cfg(),
                      [&legit](FlowId f) { return legit.count(f) != 0; });
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {  // teach it the flow population
    t = i * 0.001;
    q.enqueue(pkt(1), t);
    q.enqueue(pkt(2), t);
    q.dequeue(t);
    q.dequeue(t);
  }
  while (!q.empty()) q.dequeue(t);
  // Fill the buffer with attack traffic (some of it out-of-profile, hence
  // low priority), then offer legit packets: while low-priority packets
  // remain, each legit arrival evicts one instead of being dropped.
  for (int i = 0; i < 60; ++i) q.enqueue(pkt(2), t + 0.001);
  ASSERT_EQ(q.packet_count(), 50u);
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (q.enqueue(pkt(1), t + 0.002)) ++admitted;
  }
  EXPECT_GE(admitted, 5);
  EXPECT_EQ(q.packet_count(), 50u);  // buffer never exceeded
}

TEST(PriorityFairQueue, EmptyDequeue) {
  PriorityFairQueue q(small_cfg(), [](FlowId) { return true; });
  EXPECT_FALSE(q.dequeue(0.0));
}

TEST(PriorityFairQueue, CountsBytes) {
  PriorityFairQueue q(small_cfg(), [](FlowId) { return true; });
  q.enqueue(pkt(1), 0.0);
  EXPECT_EQ(q.byte_count(), 1500u);
  q.dequeue(0.0);
  EXPECT_EQ(q.byte_count(), 0u);
}

}  // namespace
}  // namespace floc
