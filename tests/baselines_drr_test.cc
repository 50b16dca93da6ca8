#include "baselines/drr_queue.h"

#include <gtest/gtest.h>

#include <map>

namespace floc {
namespace {

Packet pkt(FlowId f, int bytes = 1500) {
  Packet p;
  p.flow = f;
  p.size_bytes = bytes;
  return p;
}

DrrConfig small_cfg() {
  DrrConfig cfg;
  cfg.buffer_packets = 100;
  cfg.quantum_bytes = 1500;
  cfg.max_flow_queue = 30;
  return cfg;
}

TEST(DrrQueue, EmptyDequeue) {
  DrrQueue q(small_cfg());
  EXPECT_FALSE(q.dequeue(0.0));
  EXPECT_TRUE(q.empty());
}

TEST(DrrQueue, SingleFlowFifo) {
  DrrQueue q(small_cfg());
  for (int i = 0; i < 5; ++i) {
    Packet p = pkt(1);
    p.seq = static_cast<std::uint64_t>(i);
    q.enqueue(std::move(p), 0.0);
  }
  for (int i = 0; i < 5; ++i) {
    auto out = q.dequeue(0.0);
    ASSERT_TRUE(out);
    EXPECT_EQ(out->seq, static_cast<std::uint64_t>(i));
  }
}

TEST(DrrQueue, RoundRobinFairness) {
  DrrQueue q(small_cfg());
  // Flow 1 queues 20 packets, flow 2 queues 20: service alternates.
  for (int i = 0; i < 20; ++i) {
    q.enqueue(pkt(1), 0.0);
    q.enqueue(pkt(2), 0.0);
  }
  std::map<FlowId, int> served;
  for (int i = 0; i < 20; ++i) served[q.dequeue(0.0)->flow]++;
  EXPECT_EQ(served[1], 10);
  EXPECT_EQ(served[2], 10);
}

TEST(DrrQueue, BacklogCannotStarveNewFlow) {
  DrrQueue q(small_cfg());
  for (int i = 0; i < 25; ++i) q.enqueue(pkt(1), 0.0);
  q.enqueue(pkt(2), 0.0);
  // Within the first two dequeues, flow 2 must be served once.
  bool seen2 = false;
  for (int i = 0; i < 2; ++i) {
    if (q.dequeue(0.0)->flow == 2) seen2 = true;
  }
  EXPECT_TRUE(seen2);
}

TEST(DrrQueue, SmallPacketsShareByBytesNotPackets) {
  DrrConfig cfg = small_cfg();
  DrrQueue q(cfg);
  // Flow 1 sends 1500 B packets, flow 2 sends 500 B packets: per quantum
  // (1500 B) flow 2 should get ~3 packets for each of flow 1's.
  for (int i = 0; i < 10; ++i) q.enqueue(pkt(1, 1500), 0.0);
  for (int i = 0; i < 30; ++i) q.enqueue(pkt(2, 500), 0.0);
  std::map<FlowId, int> bytes;
  for (int i = 0; i < 20; ++i) {
    auto p = q.dequeue(0.0);
    ASSERT_TRUE(p);
    bytes[p->flow] += p->size_bytes;
  }
  EXPECT_NEAR(bytes[1], bytes[2], 1600);
}

TEST(DrrQueue, PerFlowQueueCap) {
  DrrConfig cfg = small_cfg();
  cfg.max_flow_queue = 5;
  DrrQueue q(cfg);
  int admitted = 0;
  for (int i = 0; i < 20; ++i) admitted += q.enqueue(pkt(1), 0.0);
  EXPECT_EQ(admitted, 5);
  EXPECT_EQ(q.drops(), 15u);
}

TEST(DrrQueue, SharedBufferCap) {
  DrrConfig cfg = small_cfg();
  cfg.buffer_packets = 10;
  cfg.max_flow_queue = 10;
  DrrQueue q(cfg);
  int admitted = 0;
  for (FlowId f = 1; f <= 4; ++f) {
    for (int i = 0; i < 5; ++i) admitted += q.enqueue(pkt(f), 0.0);
  }
  EXPECT_EQ(admitted, 10);
  EXPECT_EQ(q.packet_count(), 10u);
}

TEST(DrrQueue, ByteAccounting) {
  DrrQueue q(small_cfg());
  q.enqueue(pkt(1, 700), 0.0);
  q.enqueue(pkt(2, 1500), 0.0);
  EXPECT_EQ(q.byte_count(), 2200u);
  q.dequeue(0.0);
  q.dequeue(0.0);
  EXPECT_EQ(q.byte_count(), 0u);
  EXPECT_EQ(q.active_flows(), 0u);
}

}  // namespace
}  // namespace floc
