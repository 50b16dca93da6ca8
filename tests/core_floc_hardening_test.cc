// Hardening-layer tests: measurement jitter must not tax conformant flows,
// exponential-backoff release must confine duty-cycled floods geometrically,
// the offender blacklist must add/drop/expire with rate-limited strikes, and
// offense + blacklist verdicts must survive a FaultPlan-driven reboot.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/floc_queue.h"
#include "faultsim/fault_plan.h"
#include "netsim/simulator.h"

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

// Floods `bad` at 3x the link while `good` sends conformantly; services at
// link rate. Returns the number of admitted `good` packets.
int drive_flood(FlocQueue& q, double t0, double t1, const PathId& bad,
                const PathId& good, bool flood_on = true) {
  const double dt = 1.0 / 2500.0;
  double next_service = t0;
  int good_admitted = 0;
  const int steps = static_cast<int>((t1 - t0) / dt);
  for (int i = 0; i < steps; ++i) {
    const double t = t0 + i * dt;
    if (flood_on) q.enqueue(data(100, bad, /*src=*/2), t);
    if (i % 8 == 0 && q.enqueue(data(1, good, /*src=*/1), t)) ++good_admitted;
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  return good_admitted;
}

// --- Measurement jitter ----------------------------------------------------

// Property: the jitter re-draws each aggregate's token period and scales the
// bucket with it, so the long-run token rate — and with it a conformant
// flow's admitted throughput — stays within a few percent of the unjittered
// run, across seeds, even in flooding mode where tokens are enforced
// strictly for every path.
TEST(HardeningJitter, ConformantThroughputWithinEpsilonAcrossSeeds) {
  for (std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    int admitted[2];
    for (int j = 0; j < 2; ++j) {
      FlocConfig cfg = base_cfg();
      cfg.rng_seed = seed;
      cfg.interval_jitter = j == 0 ? 0.0 : 0.15;
      FlocQueue q(cfg);
      const PathId good = PathId::of({1, 10});
      const PathId bad = PathId::of({2, 20});
      drive_flood(q, 0.0, 2.0, bad, good);  // warm up, latch the flood
      admitted[j] = drive_flood(q, 2.0, 10.0, bad, good);
    }
    EXPECT_GT(admitted[0], 0);
    EXPECT_NEAR(static_cast<double>(admitted[1]),
                static_cast<double>(admitted[0]),
                0.05 * static_cast<double>(admitted[0]))
        << "seed " << seed;
  }
}

// --- Exponential-backoff release -------------------------------------------

TEST(HardeningBackoff, EscalatesOnlyOnFastRelapse) {
  FlocConfig cfg = base_cfg();
  cfg.backoff_release = true;
  cfg.backoff_decay = 1000.0;  // no decay inside the test
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});

  drive_flood(q, 0.0, 2.0, bad, good);
  ASSERT_TRUE(q.is_attack_path(bad));
  EXPECT_EQ(q.backoff_multiplier(bad), 1);  // first latch never escalates
  EXPECT_EQ(q.release_required(bad), FlocQueue::kAttackRelease);

  // Calm long enough to release, then relapse immediately: escalation.
  drive_flood(q, 2.0, 2.5, bad, good, /*flood_on=*/false);
  ASSERT_FALSE(q.is_attack_path(bad));
  drive_flood(q, 2.5, 4.0, bad, good);
  ASSERT_TRUE(q.is_attack_path(bad));
  EXPECT_EQ(q.backoff_multiplier(bad), 2);
  EXPECT_EQ(q.release_required(bad), 2 * FlocQueue::kAttackRelease);

  // Second fast relapse: doubles again.
  drive_flood(q, 4.0, 4.6, bad, good, /*flood_on=*/false);
  ASSERT_FALSE(q.is_attack_path(bad));
  drive_flood(q, 4.6, 6.0, bad, good);
  ASSERT_TRUE(q.is_attack_path(bad));
  EXPECT_EQ(q.backoff_multiplier(bad), 4);

  // A path with no offense record is untouched.
  EXPECT_EQ(q.backoff_multiplier(good), 1);
  EXPECT_EQ(q.release_required(good), FlocQueue::kAttackRelease);
}

// Scripted duty-cycle scenario: the attacker blasts for 1s and goes quiet
// for 0.45s — just above the base release hysteresis (4 ticks x 50ms), the
// optimal open-loop gaming of a FIXED release. Under exponential backoff
// each relapse doubles the calm requirement, so the quiet phase stops being
// enough and the path stays confined: per-cycle admitted attack traffic
// must decay to a small fraction of the first cycle's.
TEST(HardeningBackoff, DutyCycledGoodputDecaysGeometrically) {
  FlocConfig cfg = base_cfg();
  cfg.backoff_release = true;
  cfg.backoff_decay = 1000.0;
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});

  std::vector<int> admitted_per_cycle;
  const double dt = 1.0 / 2500.0;
  double next_service = 0.0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    const double t0 = cycle * 1.45;
    int admitted = 0;
    for (double t = t0; t < t0 + 1.45; t += dt) {
      const bool blast = t - t0 < 1.0;
      if (blast && q.enqueue(data(100, bad, /*src=*/2), t)) ++admitted;
      // The conformant path keeps ticking the lazy control loop during the
      // quiet phase (calm streaks only accumulate when control runs).
      if (!q.enqueue(data(1, good, /*src=*/1), t)) {
        // ignore; only used to drive the clock
      }
      while (next_service <= t) {
        q.dequeue(next_service);
        next_service += 1.0 / 833.0;
      }
    }
    admitted_per_cycle.push_back(admitted);
  }
  ASSERT_EQ(admitted_per_cycle.size(), 6u);
  std::string cycles;
  for (int a : admitted_per_cycle) cycles += std::to_string(a) + " ";
  SCOPED_TRACE("admitted per cycle: " + cycles);
  EXPECT_GT(q.backoff_multiplier(bad), 1);
  // The first cycle pays the initial latch hysteresis, so the per-cycle
  // peak is within the first two cycles; escalation then doubles the calm
  // requirement past the quiet phase, and once the path can no longer
  // release, every later blast is confined to the strict token allocation.
  const double early = static_cast<double>(
      std::max(admitted_per_cycle[0], admitted_per_cycle[1]));
  EXPECT_LT(admitted_per_cycle[3], admitted_per_cycle[2]);
  for (int k = 3; k < 6; ++k) {
    EXPECT_LT(static_cast<double>(admitted_per_cycle[k]), 0.6 * early)
        << "cycle " << k;
  }
}

// --- Offender blacklist ----------------------------------------------------

TEST(HardeningBlacklist, StrikesAreRateLimitedThenSentenceExpires) {
  FlocConfig cfg = base_cfg();
  cfg.enable_blacklist = true;
  cfg.blacklist_strikes = 12;
  cfg.blacklist_duration = 2.0;
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});

  // A short flood drops far more than `blacklist_strikes` packets, but
  // strikes are capped at one per control interval: 0.5s of flood is at
  // most ~10 strikes, no sentence yet.
  drive_flood(q, 0.0, 0.5, bad, good);
  EXPECT_FALSE(q.is_blacklisted(2, 0.5));
  EXPECT_EQ(q.blacklist_size(0.5), 0u);

  // Sustained flood: strikes reach the threshold, sender 2 is sentenced and
  // its packets are dropped on sight.
  drive_flood(q, 0.5, 2.0, bad, good);
  ASSERT_TRUE(q.is_blacklisted(2, 2.0));
  EXPECT_EQ(q.blacklist_size(2.0), 1u);
  EXPECT_FALSE(q.is_blacklisted(1, 2.0));  // the conformant sender is not
  const std::uint64_t bl_before = q.drops_by_reason(DropReason::kBlacklist);
  EXPECT_FALSE(q.enqueue(data(100, bad, /*src=*/2), 2.0));
  EXPECT_EQ(q.drops_by_reason(DropReason::kBlacklist), bl_before + 1);

  // The flood stops; the sentence (at most t<2.0 plus blacklist_duration)
  // expires with no new strikes to renew it.
  EXPECT_FALSE(q.is_blacklisted(2, 5.5));
  EXPECT_EQ(q.blacklist_size(5.5), 0u);
}

// --- Reboot persistence (FaultPlan-driven) ---------------------------------

// The offense record and the blacklist are issued verdicts, not re-derivable
// soft state: after a FaultPlan reboot mid-attack, the blacklist still
// stands, and as soon as the path is relearned its latched flag and backoff
// multiplier are restored instead of re-running the hysteresis from zero.
TEST(HardeningReboot, OffenseAndBlacklistSurviveFaultPlanReboot) {
  FlocConfig cfg = base_cfg();
  cfg.backoff_release = true;
  cfg.backoff_decay = 1000.0;
  cfg.enable_blacklist = true;
  FlocQueue q(cfg);
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});

  // Latch, escalate once, and get the flooder blacklisted.
  drive_flood(q, 0.0, 2.0, bad, good);
  drive_flood(q, 2.0, 2.5, bad, good, /*flood_on=*/false);
  drive_flood(q, 2.5, 5.0, bad, good);
  ASSERT_TRUE(q.is_attack_path(bad));
  ASSERT_EQ(q.backoff_multiplier(bad), 2);
  ASSERT_TRUE(q.is_blacklisted(2, 5.0));

  // Reboot through a FaultPlan on a simulator clock, as the churn suite
  // does, rather than by calling reboot() directly.
  Simulator sim;
  FaultPlan plan;
  plan.add_reboot(&q, 5.5);
  plan.install(&sim);
  sim.run_until(6.0);
  ASSERT_EQ(q.reboots(), 1u);
  EXPECT_EQ(q.active_origin_path_count(), 0);  // soft state is gone

  // The sender verdict survived the reboot outright.
  EXPECT_TRUE(q.is_blacklisted(2, 6.0));

  // One relearning interval later the path is latched again with its
  // multiplier intact — far sooner than the kAttackLatch hysteresis could
  // possibly re-derive it.
  drive_flood(q, 6.0, 6.2, bad, good);
  EXPECT_TRUE(q.is_attack_path(bad));
  EXPECT_EQ(q.backoff_multiplier(bad), 2);

  // Default config (hardening off) keeps the seed behavior: a reboot wipes
  // the latch and the hysteresis starts over (covered by FlocReboot tests).
}

}  // namespace
}  // namespace floc
