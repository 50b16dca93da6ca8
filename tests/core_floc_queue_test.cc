#include "core/floc_queue.h"

#include <gtest/gtest.h>

#include <cmath>

namespace floc {
namespace {

FlocConfig small_cfg() {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 100;  // Q_min = 20
  cfg.control_interval = 0.1;
  cfg.default_rtt = 0.05;
  cfg.enable_aggregation = false;
  return cfg;
}

Packet data(FlowId flow, const PathId& path, HostAddr src = 1,
            HostAddr dst = 99) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = dst;
  p.path = path;
  p.type = PacketType::kData;
  return p;
}

Packet syn(FlowId flow, const PathId& path, HostAddr src = 1,
           HostAddr dst = 99) {
  Packet p = data(flow, path, src, dst);
  p.type = PacketType::kSyn;
  p.size_bytes = 40;
  return p;
}

TEST(FlocQueue, FifoOrderPreserved) {
  FlocQueue q(small_cfg());
  for (FlowId f = 1; f <= 5; ++f) {
    EXPECT_TRUE(q.enqueue(data(f, PathId::of({1})), 0.001 * static_cast<double>(f)));
  }
  for (FlowId f = 1; f <= 5; ++f) {
    auto p = q.dequeue(0.01);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->flow, f);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FlocQueue, ByteCountTracksContents) {
  FlocQueue q(small_cfg());
  EXPECT_TRUE(q.enqueue(data(1, PathId::of({1})), 0.0));
  EXPECT_EQ(q.byte_count(), 1500u);
  q.dequeue(0.0);
  EXPECT_EQ(q.byte_count(), 0u);
}

TEST(FlocQueue, UncongestedModeAdmitsEverything) {
  FlocQueue q(small_cfg());
  // Below Q_min (20 packets) nothing is dropped.
  for (int i = 0; i < 19; ++i) {
    EXPECT_TRUE(q.enqueue(data(1, PathId::of({1})), 0.001 * i));
  }
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_EQ(q.mode(), FlocQueue::Mode::kUncongested);
}

TEST(FlocQueue, BufferOverflowDrops) {
  FlocQueue q(small_cfg());
  int admitted = 0;
  for (int i = 0; i < 300; ++i) {
    if (q.enqueue(data(1, PathId::of({1})), 0.0001 * i)) ++admitted;
  }
  EXPECT_LE(q.packet_count(), 100u);
  EXPECT_GT(q.drops(), 0u);
}

TEST(FlocQueue, SynReceivesCapability) {
  FlocQueue q(small_cfg());
  Packet p = syn(1, PathId::of({1, 2}));
  EXPECT_TRUE(q.enqueue(std::move(p), 0.0));
  auto out = q.dequeue(0.0);
  ASSERT_TRUE(out);
  EXPECT_NE(out->cap0, 0u);
  EXPECT_NE(out->cap1, 0u);
  EXPECT_TRUE(q.issuer().verify(*out, out->path.key()));
}

TEST(FlocQueue, ForgedCapabilityDropped) {
  FlocQueue q(small_cfg());
  Packet p = data(1, PathId::of({1, 2}));
  p.cap0 = 0xBAD;
  p.cap1 = 0xBAD;
  EXPECT_FALSE(q.enqueue(std::move(p), 0.0));
  EXPECT_EQ(q.capability_violations(), 1u);
  EXPECT_EQ(q.drops_by_reason(DropReason::kCapability), 1u);
}

TEST(FlocQueue, UncapabilityTrafficStillControlled) {
  // Packets with cap0 == 0 (no capability) are not capability-dropped.
  FlocQueue q(small_cfg());
  EXPECT_TRUE(q.enqueue(data(1, PathId::of({1})), 0.0));
}

TEST(FlocQueue, TracksOriginPathsAndFlows) {
  FlocQueue q(small_cfg());
  q.enqueue(data(1, PathId::of({1, 10})), 0.0);
  q.enqueue(data(2, PathId::of({1, 10})), 0.0);
  q.enqueue(data(3, PathId::of({2, 20})), 0.0);
  EXPECT_EQ(q.active_origin_path_count(), 2);
  EXPECT_EQ(q.path_flow_count(PathId::of({1, 10})), 2u);
  EXPECT_EQ(q.path_flow_count(PathId::of({2, 20})), 1u);
}

TEST(FlocQueue, FlowsExpireAfterTimeout) {
  FlocConfig cfg = small_cfg();
  cfg.flow_timeout = 1.0;
  FlocQueue q(cfg);
  q.enqueue(data(1, PathId::of({1})), 0.0);
  while (!q.empty()) q.dequeue(0.0);
  // Idle past the timeout; a control pass prunes flow and path.
  q.run_control(5.0);
  EXPECT_EQ(q.active_origin_path_count(), 0);
}

TEST(FlocQueue, TokenParamsReflectBandwidthSplit) {
  FlocConfig cfg = small_cfg();
  FlocQueue q(cfg);
  // Two paths, one flow each.
  q.enqueue(data(1, PathId::of({1})), 0.0);
  q.enqueue(data(2, PathId::of({2})), 0.0);
  q.run_control(0.2);
  const auto* p1 = q.params_for(PathId::of({1}));
  const auto* p2 = q.params_for(PathId::of({2}));
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  // Equal split: identical parameters for symmetrical paths.
  EXPECT_DOUBLE_EQ(p1->period, p2->period);
  EXPECT_DOUBLE_EQ(p1->bucket_packets, p2->bucket_packets);
}

// Drive the queue with an over-rate "attack" path and a conformant path and
// verify attack identification + preferential dropping engage.
TEST(FlocQueue, AttackPathIdentifiedAndPenalized) {
  FlocConfig cfg = small_cfg();
  cfg.buffer_packets = 60;
  cfg.control_interval = 0.05;
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});

  // 10 Mbps link = ~833 full packets/s. Attack path offers 3x the link; the
  // good path offers a fifth of it. Service drains at link rate.
  const double dt = 1.0 / 2500.0;  // attack packet interarrival
  double next_service = 0.0;
  double t = 0.0;
  std::uint64_t good_sent = 0, good_admitted = 0;
  for (int i = 0; i < 12500; ++i) {  // 5 seconds
    t = i * dt;
    if (q.enqueue(data(100, bad, /*src=*/2), t)) {
    }
    if (i % 15 == 0) {
      ++good_sent;
      if (q.enqueue(data(1, good, /*src=*/1), t)) ++good_admitted;
    }
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  q.run_control(t + 0.01);
  EXPECT_TRUE(q.is_attack_path(bad));
  EXPECT_FALSE(q.is_attack_path(good));
  // Conformance of the attack path collapses, good path stays high.
  EXPECT_LT(q.conformance(bad), 0.6);
  EXPECT_GT(q.conformance(good), 0.8);
  // Preferential drops engaged against the attack flow.
  EXPECT_GT(q.drops_by_reason(DropReason::kPreferential), 0u);
  // The good path's flow kept most of its (modest) traffic.
  EXPECT_GT(static_cast<double>(good_admitted) / static_cast<double>(good_sent),
            0.5);
}

TEST(FlocQueue, MtdMeasuredPerFlow) {
  FlocConfig cfg = small_cfg();
  cfg.buffer_packets = 30;
  FlocQueue q(cfg);
  const PathId path = PathId::of({3});
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    t = i * 0.0005;
    q.enqueue(data(7, path), t);
    if (i % 3 == 0) q.dequeue(t);
  }
  // The over-rate flow must show a finite MTD (it has been dropped).
  EXPECT_TRUE(std::isfinite(q.flow_mtd(path, 7, t)));
}

TEST(FlocQueue, AggregationReducesIdentifierCount) {
  FlocConfig cfg = small_cfg();
  cfg.enable_aggregation = true;
  cfg.s_max = 3;
  cfg.e_th = 0.5;
  cfg.control_interval = 0.05;
  cfg.aggregation_every = 1;
  cfg.buffer_packets = 40;
  FlocQueue q(cfg);

  // Four sibling attack paths hammer the queue; one legit path trickles.
  std::vector<PathId> bad;
  for (AsNumber i = 0; i < 4; ++i) bad.push_back(PathId::of({5, 50 + i}));
  const PathId good = PathId::of({1, 10});

  double t = 0.0;
  double next_service = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t = i * 0.0002;  // 5000 pkt/s offered across attack paths
    q.enqueue(data(200 + (i % 4), bad[static_cast<std::size_t>(i % 4)],
                   /*src=*/static_cast<HostAddr>(10 + i % 4)),
              t);
    if (i % 10 == 0) q.enqueue(data(1, good), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  q.run_control(t + 0.01);
  // 5 origin paths must have been squeezed into <= s_max identifiers.
  EXPECT_EQ(q.active_origin_path_count(), 5);
  EXPECT_LE(q.active_aggregate_count(), 3);
  EXPECT_TRUE(q.is_aggregated(bad[0]));
  EXPECT_FALSE(q.is_aggregated(good));
}

TEST(FlocQueue, ScalableFilterModeWorks) {
  FlocConfig cfg = small_cfg();
  cfg.use_scalable_filter = true;
  cfg.filter.bits = 12;
  cfg.buffer_packets = 40;
  FlocQueue q(cfg);
  const PathId path = PathId::of({4});
  double t = 0.0;
  for (int i = 0; i < 10000; ++i) {
    t = i * 0.0003;
    q.enqueue(data(9, path), t);
    if (i % 3 == 0) q.dequeue(t);
  }
  q.run_control(t + 0.01);
  // Over-rate flow visible through the filter-backed MTD.
  EXPECT_LT(q.flow_mtd(path, 9, t), 1e9);
}

TEST(FlocQueue, ControlPassIsIdempotentWhenIdle) {
  FlocQueue q(small_cfg());
  q.enqueue(data(1, PathId::of({1})), 0.0);
  q.run_control(0.5);
  const auto* p1 = q.params_for(PathId::of({1}));
  ASSERT_NE(p1, nullptr);
  const double period = p1->period;
  q.run_control(0.6);
  const auto* p2 = q.params_for(PathId::of({1}));
  ASSERT_NE(p2, nullptr);
  EXPECT_DOUBLE_EQ(p2->period, period);
}

}  // namespace
}  // namespace floc
