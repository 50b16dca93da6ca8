// Reboot survival: a FLoc router that loses all soft state mid-flood must
// come back, relearn, and re-confine the attack within a bounded number of
// control intervals — degrading per the configured RecoveryPolicy meanwhile.
#include <gtest/gtest.h>

#include <string>

#include "core/floc_queue.h"
#include "telemetry/tracing.h"

namespace floc {
namespace {

FlocConfig churn_cfg() {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 60;
  cfg.control_interval = 0.05;
  cfg.default_rtt = 0.05;
  cfg.enable_aggregation = false;
  return cfg;
}

Packet data(FlowId flow, const PathId& path, HostAddr src) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = 99;
  p.path = path;
  p.type = PacketType::kData;
  return p;
}

// Drives an over-rate attack path plus a conformant path through [t0, t1)
// at the same rates as core_floc_queue_test's latching recipe: attack at 3x
// the link, good at a fifth of it, service at link rate.
void drive_flood(FlocQueue& q, double t0, double t1, const PathId& bad,
                 const PathId& good) {
  const double dt = 1.0 / 2500.0;
  double next_service = t0;
  const int steps = static_cast<int>((t1 - t0) / dt);
  for (int i = 0; i < steps; ++i) {
    const double t = t0 + i * dt;
    q.enqueue(data(100, bad, /*src=*/2), t);
    if (i % 15 == 0) q.enqueue(data(1, good, /*src=*/1), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
}

TEST(FlocReboot, WipesSoftStateAndEntersRecovery) {
  FlocConfig cfg = churn_cfg();
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});
  drive_flood(q, 0.0, 5.0, bad, good);
  q.run_control(5.0);
  ASSERT_TRUE(q.is_attack_path(bad));
  ASSERT_GT(q.active_origin_path_count(), 0);
  // Leave a few packets buffered so the wipe has something to flush.
  for (int i = 0; i < 3; ++i) q.enqueue(data(1, good, 1), 5.0);
  ASSERT_FALSE(q.empty());

  q.reboot(5.0);

  EXPECT_EQ(q.reboots(), 1u);
  EXPECT_EQ(q.active_origin_path_count(), 0);
  EXPECT_EQ(q.active_aggregate_count(), 0);
  EXPECT_FALSE(q.is_attack_path(bad));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.byte_count(), 0u);
  EXPECT_TRUE(q.in_recovery(5.0));
  const double recovery_end =
      5.0 + cfg.recovery_intervals * cfg.control_interval;
  EXPECT_TRUE(q.in_recovery(recovery_end - 1e-9));
  EXPECT_FALSE(q.in_recovery(recovery_end));
  // Packet conservation survives the wipe (audit folds flushed packets in).
  std::string why;
  EXPECT_TRUE(q.audit(5.0, &why)) << why;
}

TEST(FlocReboot, PreserveQueueKeepsBufferedPackets) {
  FlocQueue q(churn_cfg());
  const PathId path = PathId::of({1});
  for (int i = 0; i < 5; ++i) q.enqueue(data(1, path, 1), 0.001 * i);
  const std::size_t pkts = q.packet_count();
  const std::size_t bytes = q.byte_count();
  ASSERT_GT(pkts, 0u);

  q.reboot(1.0, /*preserve_queue=*/true);

  EXPECT_EQ(q.packet_count(), pkts);
  EXPECT_EQ(q.byte_count(), bytes);
  EXPECT_EQ(q.active_origin_path_count(), 0);
  std::string why;
  EXPECT_TRUE(q.audit(1.0, &why)) << why;
  // The surviving packets still drain normally.
  for (std::size_t i = 0; i < pkts; ++i) EXPECT_TRUE(q.dequeue(1.1));
  EXPECT_TRUE(q.empty());
}

// A flushing reboot discards the buffered packets outside any queue verdict:
// each traced one ends its queue span with the flushed status instead of
// leaking it, while a preserving reboot leaves the spans open for dequeue.
TEST(FlocReboot, FlushClosesTracedSpans) {
  for (const bool preserve : {false, true}) {
    FlocQueue q(churn_cfg());
    telemetry::Tracer tracer;
    q.set_tracer(&tracer);
    const PathId path = PathId::of({1});
    for (int i = 0; i < 5; ++i) {
      Packet p = data(1, path, 1);
      const telemetry::SpanId id = tracer.begin(
          0.001 * i, p.flow, 0, telemetry::SpanKind::kQueue, 0, 0);
      p.span = SpanContext{p.flow, id, 0};
      q.enqueue(std::move(p), 0.001 * i);
    }
    const std::size_t buffered = q.packet_count();
    ASSERT_GT(buffered, 0u);
    ASSERT_EQ(tracer.open_count(), buffered);

    q.reboot(1.0, preserve);

    std::size_t flushed = 0;
    for (const telemetry::Span& sp : tracer.spans()) {
      if (sp.status == kSpanStatusFlushed) {
        ++flushed;
        EXPECT_NE(sp.annot.find("drop=flushed"), std::string::npos);
      }
    }
    EXPECT_EQ(flushed, preserve ? 0u : buffered) << "preserve=" << preserve;
    EXPECT_EQ(tracer.open_count(), preserve ? buffered : 0u)
        << "preserve=" << preserve;
  }
}

TEST(FlocReboot, AttackRelatchesWithinBoundedIntervals) {
  FlocConfig cfg = churn_cfg();
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});
  drive_flood(q, 0.0, 5.0, bad, good);
  q.run_control(5.0);
  ASSERT_TRUE(q.is_attack_path(bad));

  q.reboot(5.0);
  ASSERT_FALSE(q.is_attack_path(bad));

  // Same flood continues; probe the flag once per control interval.
  double relatch_time = -1.0;
  for (int k = 0; k < 60 && relatch_time < 0.0; ++k) {
    const double t0 = 5.0 + k * cfg.control_interval;
    drive_flood(q, t0, t0 + cfg.control_interval, bad, good);
    if (q.is_attack_path(bad)) relatch_time = t0 + cfg.control_interval;
  }
  ASSERT_GT(relatch_time, 0.0) << "attack path never re-latched";
  const int intervals =
      static_cast<int>((relatch_time - 5.0) / cfg.control_interval + 0.5);
  // Relearning takes the recovery grace plus the latch hysteresis, plus a
  // little slack for parameter re-estimation from cold state.
  EXPECT_LE(intervals, cfg.recovery_intervals + FlocQueue::kAttackLatch + 6);
  // The conformant path is not collateral damage of the relearn.
  EXPECT_FALSE(q.is_attack_path(good));
  std::string why;
  EXPECT_TRUE(q.audit(relatch_time, &why)) << why;
}

// During the recovery window, fail-closed enforces strict token admission
// (kToken drops) while fail-open degrades to the neutral random-threshold
// policy only — no token-reason drops at all.
TEST(FlocReboot, RecoveryPolicyPicksFailureDirection) {
  for (RecoveryPolicy policy :
       {RecoveryPolicy::kFailOpen, RecoveryPolicy::kFailClosed}) {
    FlocConfig cfg = churn_cfg();
    cfg.recovery_policy = policy;
    cfg.recovery_intervals = 40;  // 2 s: the whole drive stays in recovery
    FlocQueue q(cfg);
    const PathId path = PathId::of({7});
    // Warm up briefly under-rate (no drops), then reboot into the long
    // recovery window.
    for (int i = 0; i < 100; ++i) {
      q.enqueue(data(5, path, 5), i * 0.002);
      q.dequeue(i * 0.002);
    }
    q.reboot(0.2);
    ASSERT_TRUE(q.in_recovery(0.2));

    // Over-rate single path (3x link) with slow service: the queue climbs
    // past Q_min and token shortfalls occur while still in recovery.
    const double dt = 1.0 / 2500.0;
    double next_service = 0.2;
    for (int i = 0; i < 2500; ++i) {  // one second
      const double t = 0.2 + i * dt;
      q.enqueue(data(5, path, 5), t);
      while (next_service <= t) {
        q.dequeue(next_service);
        next_service += 1.0 / 833.0;
      }
    }
    ASSERT_TRUE(q.in_recovery(1.2));
    if (policy == RecoveryPolicy::kFailClosed) {
      EXPECT_GT(q.drops_by_reason(DropReason::kToken), 0u)
          << "fail-closed recovery must enforce strict token admission";
    } else {
      EXPECT_EQ(q.drops_by_reason(DropReason::kToken), 0u)
          << "fail-open recovery must not token-drop";
    }
  }
}

}  // namespace
}  // namespace floc
