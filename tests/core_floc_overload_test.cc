// Bounded-state overload resilience at the FlocQueue level:
//  * arming huge budgets + overload mode that never trips is bit-identical
//    to the unbounded baseline (default-off contract),
//  * identity churn keeps every table under budget while the state gauges
//    and kStateEvict journal entries track the pressure,
//  * crossing the high-watermark enters overload mode (journaled), coarsens
//    newly learned paths, sheds non-capability data, and exits with
//    hysteresis once the churned state expires,
//  * an evicted-while-guilty path re-latches within one control interval of
//    resuming (the EvictionSketch), and an evicted active blacklist sentence
//    is restored on the sender's first post-eviction strike.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/floc_queue.h"
#include "core/state_budget.h"
#include "telemetry/telemetry.h"

namespace floc {
namespace {

FlocConfig base_cfg() {
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

Packet syn(FlowId flow, const PathId& path, HostAddr src) {
  Packet p = data(flow, path, src);
  p.type = PacketType::kSyn;
  p.size_bytes = 40;
  return p;
}

// Floods `bad` at 3x the link while `good` sends conformantly; services at
// link rate. Returns the number of admitted `good` packets.
int drive_flood(FlocQueue& q, double t0, double t1, const PathId& bad,
                const PathId& good, bool flood_on = true,
                HostAddr bad_src = 2, FlowId bad_flow = 100) {
  const double dt = 1.0 / 2500.0;
  double next_service = t0;
  int good_admitted = 0;
  const int steps = static_cast<int>((t1 - t0) / dt);
  for (int i = 0; i < steps; ++i) {
    const double t = t0 + i * dt;
    if (flood_on) q.enqueue(data(bad_flow, bad, bad_src), t);
    if (i % 8 == 0 && q.enqueue(data(1, good, /*src=*/1), t)) ++good_admitted;
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  return good_admitted;
}

// --- Default-off / never-tripped contract -----------------------------------

// Arming every budget with huge capacities plus overload mode whose
// watermarks are never crossed must not perturb a single admission verdict,
// drop reason, or journal event relative to the unbounded baseline. This is
// the "observability of the knobs is zero until they act" contract that
// keeps bounded runs byte-identical with historical traces.
TEST(FlocOverload, ArmedButIdleBudgetsAreBitIdenticalToBaseline) {
  FlocConfig armed = base_cfg();
  armed.origin_budget.capacity = 1u << 20;
  armed.flow_budget.capacity = 1u << 20;
  armed.offense_budget.capacity = 1u << 20;
  armed.offender_budget.capacity = 1u << 20;
  armed.enable_overload_mode = true;  // watermarks unreachable at 2^20
  armed.backoff_release = true;
  armed.enable_blacklist = true;
  armed.blacklist_strikes = 3;
  FlocConfig baseline = base_cfg();
  baseline.backoff_release = true;
  baseline.enable_blacklist = true;
  baseline.blacklist_strikes = 3;

  FlocQueue qa(baseline), qb(armed);
  telemetry::Telemetry ta, tb;
  qa.attach_telemetry(&ta);
  qb.attach_telemetry(&tb);

  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});
  std::vector<char> verdicts_a, verdicts_b;
  const double dt = 1.0 / 2500.0;
  double next_service = 0.0;
  for (int i = 0; i < 3 * 2500; ++i) {
    const double t = i * dt;
    // Flood + conformant traffic + a modest identity trickle: enough churn
    // to exercise every map, nowhere near 2^20 entries.
    verdicts_a.push_back(qa.enqueue(data(100, bad, 2), t) ? 1 : 0);
    verdicts_b.push_back(qb.enqueue(data(100, bad, 2), t) ? 1 : 0);
    if (i % 8 == 0) {
      verdicts_a.push_back(qa.enqueue(data(1, good, 1), t) ? 1 : 0);
      verdicts_b.push_back(qb.enqueue(data(1, good, 1), t) ? 1 : 0);
    }
    if (i % 25 == 0) {
      const PathId churn = PathId::of({3, 1000u + static_cast<unsigned>(i)});
      const FlowId f = 500 + i;
      verdicts_a.push_back(qa.enqueue(syn(f, churn, 3), t) ? 1 : 0);
      verdicts_b.push_back(qb.enqueue(syn(f, churn, 3), t) ? 1 : 0);
    }
    while (next_service <= t) {
      auto pa = qa.dequeue(next_service);
      auto pb = qb.dequeue(next_service);
      ASSERT_EQ(static_cast<bool>(pa), static_cast<bool>(pb));
      next_service += 1.0 / 833.0;
    }
  }

  EXPECT_EQ(verdicts_a, verdicts_b);
  for (int r = 0; r < static_cast<int>(kDropReasonCount); ++r) {
    const auto reason = static_cast<DropReason>(r);
    EXPECT_EQ(qa.drops_by_reason(reason), qb.drops_by_reason(reason))
        << to_string(reason);
  }
  EXPECT_EQ(ta.journal.dump(), tb.journal.dump());
  EXPECT_FALSE(qb.overloaded());
  EXPECT_EQ(qb.state_evictions(), 0u);
  EXPECT_EQ(tb.journal.count(telemetry::EventKind::kStateEvict), 0u);
  EXPECT_EQ(tb.journal.count(telemetry::EventKind::kOverloadEnter), 0u);
}

// --- Bounded tables under identity churn ------------------------------------

TEST(FlocOverload, IdentityChurnStaysUnderBudgetAndIsJournaled) {
  FlocConfig cfg = base_cfg();
  cfg.origin_budget.capacity = 64;
  cfg.flow_budget.capacity = 16;
  cfg.offense_budget.capacity = 32;
  cfg.offender_budget.capacity = 32;
  cfg.backoff_release = true;
  cfg.enable_blacklist = true;
  FlocQueue q(cfg);
  telemetry::Telemetry tel;
  q.attach_telemetry(&tel);

  const double dt = 1.0 / 2000.0;
  double next_service = 0.0;
  for (int i = 0; i < 8000; ++i) {
    const double t = i * dt;
    // Every packet is a brand-new identity: fresh origin path, fresh flow.
    const PathId path = PathId::of({7, 1000u + static_cast<unsigned>(i)});
    const FlowId f = 1 + (i % 4096);
    if (i % 4 == 0) {
      q.enqueue(syn(f, path, static_cast<HostAddr>(1 + i % 997)), t);
    } else {
      q.enqueue(data(f, path, static_cast<HostAddr>(1 + i % 997)), t);
    }
    ASSERT_LE(q.active_origin_path_count(), 64);
    ASSERT_LE(q.offense_size(), 32u);
    ASSERT_LE(q.offender_size(), 32u);
    ASSERT_LE(q.max_path_flow_count(), 16u);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  EXPECT_GT(q.evicted_origins(), 0u);
  EXPECT_GT(q.state_evictions(), 0u);
  EXPECT_GT(tel.journal.count(telemetry::EventKind::kStateEvict), 0u);

  // The state gauges report live table sizes through the registry.
  EXPECT_EQ(tel.registry.value("floc.origins"),
            static_cast<double>(q.active_origin_path_count()));
  EXPECT_EQ(tel.registry.value("floc.offense"),
            static_cast<double>(q.offense_size()));
  EXPECT_EQ(tel.registry.value("floc.offenders"),
            static_cast<double>(q.offender_size()));
  EXPECT_EQ(tel.registry.value("flow_table.size"),
            static_cast<double>(q.flow_record_count()));
  EXPECT_EQ(tel.registry.value("floc.state.evictions"),
            static_cast<double>(q.state_evictions()));
  EXPECT_GT(tel.registry.value("floc.state.occupancy"), 0.0);

  std::string err;
  EXPECT_TRUE(q.audit(4.0, &err)) << err;
}

// --- Overload mode: enter, coarsen, shed, exit -------------------------------

TEST(FlocOverload, EntersCoarsensShedsAndExitsWithHysteresis) {
  FlocConfig cfg = base_cfg();
  cfg.origin_budget.capacity = 40;
  cfg.enable_overload_mode = true;
  cfg.overload_enter = 0.9;
  cfg.overload_exit = 0.5;
  cfg.overload_path_prefix = 1;
  cfg.flow_timeout = 0.5;  // fast idle-path expiry so the test can see exit
  FlocQueue q(cfg);
  telemetry::Telemetry tel;
  q.attach_telemetry(&tel);

  const PathId good = PathId::of({1, 10});
  const double dt = 1.0 / 2000.0;
  double next_service = 0.0;
  int churned = 0;
  bool saw_coarse = false;
  for (int i = 0; i < 4000; ++i) {
    const double t = i * dt;
    if (i % 4 == 0) q.enqueue(data(1, good, 1), t);
    if (i % 2 == 0) {
      // Identity churn: distinct second hop under origin AS 9 every packet.
      ++churned;
      const PathId path = PathId::of({9, 5000u + static_cast<unsigned>(churned)});
      q.enqueue(syn(200 + churned % 64, path, 3), t);
    }
    if (q.overloaded() && !saw_coarse) {
      // A path learned DURING overload is truncated to its origin-AS prefix:
      // its flow record lands under the coarse {9} origin.
      const std::size_t before = q.path_flow_count(PathId::of({9}));
      q.enqueue(syn(400, PathId::of({9, 77777}), 4), t);
      EXPECT_GT(q.path_flow_count(PathId::of({9})), before);
      // Non-capability data is shed while overloaded.
      const std::uint64_t shed = q.drops_by_reason(DropReason::kOverload);
      q.enqueue(data(401, PathId::of({9, 88888}), 4), t);
      EXPECT_GT(q.drops_by_reason(DropReason::kOverload), shed);
      saw_coarse = true;
    }
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  EXPECT_TRUE(saw_coarse) << "overload never entered under churn";
  EXPECT_GE(q.overload_entries(), 1u);
  EXPECT_GT(tel.journal.count(telemetry::EventKind::kOverloadEnter), 0u);

  // Churn stops; idle churned paths expire and occupancy falls through the
  // low-watermark. Keep the good flow running to drive control ticks.
  for (int i = 0; i < 4000; ++i) {
    const double t = 2.0 + i * dt;
    if (i % 4 == 0) q.enqueue(data(1, good, 1), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  EXPECT_FALSE(q.overloaded());
  EXPECT_GT(tel.journal.count(telemetry::EventKind::kOverloadExit), 0u);
  // Out of overload, fine-grained paths are learned again.
  q.enqueue(syn(500, PathId::of({9, 99999}), 5), 4.0);
  EXPECT_EQ(q.path_flow_count(PathId::of({9, 99999})), 1u);

  std::string err;
  EXPECT_TRUE(q.audit(4.1, &err)) << err;
}

// --- Eviction-safe re-latch ---------------------------------------------------

// A latched flood path is evicted by identity churn (LRU: the flood went
// quiet, so it is the stalest entry). When the flood resumes, the
// EvictionSketch seeds the relearned aggregate one streak short of the
// latch: detection must return within one full control interval — not the
// full latch hysteresis from zero.
TEST(FlocOverload, EvictedAttackPathRelatchesWithinOneInterval) {
  FlocConfig cfg = base_cfg();
  cfg.origin_budget.capacity = 8;
  cfg.origin_budget.policy = EvictionPolicy::kLru;
  FlocQueue q(cfg);

  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});
  drive_flood(q, 0.0, 2.0, bad, good);
  ASSERT_TRUE(q.is_attack_path(bad));

  // Flood quiet; churn distinct identities until the latched origin is the
  // LRU victim. The good path stays fresh throughout.
  double t = 2.0;
  const double dt = 1.0 / 2500.0;
  double next_service = t;
  for (int i = 0; i < 2500 && q.is_attack_path(bad); ++i) {
    q.enqueue(syn(300 + i % 32, PathId::of({4, 100u + static_cast<unsigned>(i)}), 4),
              t);
    if (i % 8 == 0) q.enqueue(data(1, good, 1), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
    t += dt;
  }
  ASSERT_FALSE(q.is_attack_path(bad)) << "latched origin was never evicted";
  ASSERT_GT(q.evicted_origins(), 0u);

  // Resume the flood; measure time-to-relatch. One partial interval may
  // elapse before the first control boundary, then ONE full measured
  // interval must be enough (streak seeded at kAttackLatch - 1).
  const double resume = t + 0.2;
  next_service = resume;
  double latched_at = -1.0;
  for (int i = 0; i < 2500; ++i) {
    const double tt = resume + i * dt;
    q.enqueue(data(100, bad, 2), tt);
    if (i % 8 == 0) q.enqueue(data(1, good, 1), tt);
    while (next_service <= tt) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
    if (q.is_attack_path(bad)) {
      latched_at = tt;
      break;
    }
  }
  ASSERT_GT(latched_at, 0.0) << "flood never re-latched";
  EXPECT_LE(latched_at - resume, 2.0 * cfg.control_interval + dt)
      << "re-latch took " << latched_at - resume
      << "s; sketch seeding should need at most one full interval";
}

// Without the sketch (budget disabled => relatch path off), a fresh latch
// needs the full hysteresis — the control experiment for the test above.
TEST(FlocOverload, FreshLatchNeedsFullHysteresis) {
  FlocConfig cfg = base_cfg();
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});
  const double dt = 1.0 / 2500.0;
  double next_service = 0.0;
  double latched_at = -1.0;
  for (int i = 0; i < 2500; ++i) {
    const double t = i * dt;
    q.enqueue(data(100, bad, 2), t);
    if (i % 8 == 0) q.enqueue(data(1, good, 1), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
    if (q.is_attack_path(bad)) {
      latched_at = t;
      break;
    }
  }
  ASSERT_GT(latched_at, 0.0);
  // kAttackLatch consecutive intervals of condition, minus the partial
  // first boundary: strictly more than (latch - 1) intervals.
  EXPECT_GT(latched_at, (FlocQueue::kAttackLatch - 1) * cfg.control_interval);
}

// An offender whose ACTIVE sentence is evicted re-enters one strike short
// of the threshold: the first post-eviction strike restores the blacklist.
TEST(FlocOverload, EvictedBlacklistSentenceRestoredOnNextStrike) {
  FlocConfig cfg = base_cfg();
  cfg.enable_blacklist = true;
  cfg.blacklist_strikes = 3;
  cfg.blacklist_duration = 30.0;
  cfg.offender_budget.capacity = 1;  // every new offender evicts the old one
  FlocQueue q(cfg);

  const PathId good = PathId::of({1, 10});
  const PathId pathA = PathId::of({2, 20});
  const PathId pathB = PathId::of({3, 30});

  // Sender 2 floods pathA until sentenced.
  drive_flood(q, 0.0, 2.0, pathA, good, true, /*bad_src=*/2, /*bad_flow=*/100);
  ASSERT_TRUE(q.is_attack_path(pathA));
  ASSERT_TRUE(q.is_blacklisted(2, 2.0));

  // Sender 3 floods pathB; its strike record displaces sender 2's active
  // sentence (capacity 1), which marks the sketch on the way out.
  drive_flood(q, 2.0, 4.0, pathB, good, true, /*bad_src=*/3, /*bad_flow=*/101);
  ASSERT_FALSE(q.is_blacklisted(2, 4.0)) << "sentence record not evicted";
  ASSERT_GT(q.evicted_offenders(), 0u);

  // Sender 2 resumes: its first strike re-inserts at strikes-1 and that same
  // strike crosses the threshold — blacklisted again almost immediately.
  double t = 4.0;
  const double dt = 1.0 / 2500.0;
  double next_service = t;
  double resentenced_at = -1.0;
  for (int i = 0; i < 5000; ++i) {
    q.enqueue(data(100, pathA, 2), t);
    if (i % 8 == 0) q.enqueue(data(1, good, 1), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
    if (q.is_blacklisted(2, t)) {
      resentenced_at = t;
      break;
    }
    t += dt;
  }
  ASSERT_GT(resentenced_at, 0.0) << "evicted offender never re-blacklisted";
  // Re-detection bound: the path released while quiet, so the resumed flood
  // pays the full latch hysteresis (4 intervals) before strikes resume —
  // then ONE strike restores the sentence. A from-scratch count would need
  // three rate-limited strikes on top of the latch (>= 0.29s here).
  EXPECT_LE(resentenced_at - 4.0, 5.0 * cfg.control_interval)
      << "re-sentencing took " << resentenced_at - 4.0 << "s";
}

}  // namespace
}  // namespace floc
