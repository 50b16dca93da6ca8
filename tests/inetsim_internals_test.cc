// Tick-simulator internals: suspect classification, group weights after
// aggregation, policy invariants, and per-policy mean shares pinned over
// ten seeds.
#include <gtest/gtest.h>

#include "inetsim/tick_sim.h"

#include "util/stats.h"
#include "topology/skitter_gen.h"

namespace floc {
namespace {

struct SmallWorld {
  AsGraph graph;
  SourcePlacement placement;

  SmallWorld() {
    SkitterConfig s;
    s.as_count = 150;
    s.seed = 77;
    graph = generate_skitter_tree(s);
    PlacementConfig p;
    p.legit_sources = 150;
    p.legit_ases = 20;
    p.attack_sources = 1500;
    p.attack_ases = 10;
    p.seed = 78;
    placement = place_sources(graph, p);
  }
};

TickConfig cfg(TickPolicy policy) {
  TickConfig t;
  t.policy = policy;
  t.bottleneck_capacity = 300;
  t.internal_capacity = 1200;
  t.ticks = 800;
  t.warmup_ticks = 200;
  t.seed = 79;
  return t;
}

TEST(TickInternals, AttackAsConformanceFalls) {
  SmallWorld w;
  TickSim sim(w.graph, w.placement, cfg(TickPolicy::kFloc));
  sim.run();
  RunningStats legit_e, attack_e;
  for (int as = 0; as < w.graph.size(); ++as) {
    const bool has_bots = w.placement.bots_per_as[static_cast<std::size_t>(as)] > 0;
    const bool has_legit =
        w.placement.legit_per_as[static_cast<std::size_t>(as)] > 0;
    if (!has_bots && !has_legit) continue;
    const auto v = sim.as_view(as);
    (has_bots ? attack_e : legit_e).add(v.conformance);
  }
  EXPECT_GT(legit_e.mean(), 0.85);
  EXPECT_LT(attack_e.mean(), 0.5);
}

TEST(TickInternals, GroupWeightsProportionalAfterAggregation) {
  SmallWorld w;
  TickConfig t = cfg(TickPolicy::kFloc);
  t.guaranteed_paths = 18;
  TickSim sim(w.graph, w.placement, t);
  const TickResults r = sim.run();
  EXPECT_GT(r.aggregate_count, 0);
  // Every placed AS belongs to some group with a positive weight.
  for (int as = 0; as < w.graph.size(); ++as) {
    if (w.placement.legit_per_as[static_cast<std::size_t>(as)] == 0 &&
        w.placement.bots_per_as[static_cast<std::size_t>(as)] == 0)
      continue;
    const auto v = sim.as_view(as);
    EXPECT_GE(v.group, 0);
    EXPECT_GT(v.group_weight, 0.0);
  }
}

TEST(TickInternals, UtilizationNeverExceedsCapacity) {
  SmallWorld w;
  for (TickPolicy p : {TickPolicy::kNoDefense, TickPolicy::kFairPriority,
                       TickPolicy::kFloc}) {
    const TickResults r = TickSim(w.graph, w.placement, cfg(p)).run();
    EXPECT_LE(r.utilization, 1.0 + 1e-9) << to_string(p);
    EXPECT_GE(r.utilization, 0.5) << to_string(p);  // flood keeps it busy
  }
}

TEST(TickInternals, DisablingFilterRaisesAttackShare) {
  SmallWorld w;
  TickConfig normal = cfg(TickPolicy::kFloc);
  TickConfig no_filter = cfg(TickPolicy::kFloc);
  no_filter.attack_over_rate = 1e9;  // per-flow filter never triggers
  const TickResults rn = TickSim(w.graph, w.placement, normal).run();
  const TickResults rq = TickSim(w.graph, w.placement, no_filter).run();
  EXPECT_GE(rq.attack_frac, rn.attack_frac);
}

// The tick model's distribution, pinned per policy: the 10-seed mean of
// legit_legit_frac stays within 1.5 pp of values recorded from a tick model
// that shuffled every router's arrivals on every tick. Per-seed numbers may
// move whenever the RNG stream changes; the means may not.
struct PinRow {
  const char* name;
  TickPolicy policy;
  int guaranteed_paths;
  double mean_legit_legit;
};

void expect_pinned_means(int internal_capacity, const PinRow (&rows)[4],
                         bool expect_internal_drops) {
  SmallWorld w;
  for (const PinRow& row : rows) {
    double sum = 0.0;
    std::uint64_t dropped_internal = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      TickConfig t = cfg(row.policy);
      t.guaranteed_paths = row.guaranteed_paths;
      t.internal_capacity = internal_capacity;
      t.seed = seed;
      const TickResults r = TickSim(w.graph, w.placement, t).run();
      sum += r.legit_legit_frac;
      dropped_internal += r.dropped_internal;
    }
    EXPECT_NEAR(sum / 10.0, row.mean_legit_legit, 0.015) << row.name;
    if (expect_internal_drops) {
      EXPECT_GT(dropped_internal, 0u) << row.name;
    } else {
      EXPECT_EQ(dropped_internal, 0u) << row.name;
    }
  }
}

TEST(TickInternals, PinnedLegitShareWithoutInternalDrops) {
  const PinRow rows[4] = {
      {"ND", TickPolicy::kNoDefense, 0, 0.0116},
      {"FF", TickPolicy::kFairPriority, 0, 0.4172},
      {"NA", TickPolicy::kFloc, 0, 0.4619},
      {"A-18", TickPolicy::kFloc, 18, 0.5175},
  };
  expect_pinned_means(cfg(TickPolicy::kFloc).internal_capacity, rows, false);
}

// Transit links as narrow as the target link: routers must drop, so the
// overflow path of the forwarding loop runs.
TEST(TickInternals, PinnedLegitShareUnderInternalOverflow) {
  const PinRow rows[4] = {
      {"ND", TickPolicy::kNoDefense, 0, 0.0113},
      {"FF", TickPolicy::kFairPriority, 0, 0.1740},
      {"NA", TickPolicy::kFloc, 0, 0.2067},
      {"A-18", TickPolicy::kFloc, 18, 0.1980},
  };
  expect_pinned_means(cfg(TickPolicy::kFloc).bottleneck_capacity, rows, true);
}

TEST(TickInternals, BotRateScalesAttackPressure) {
  SmallWorld w;
  TickConfig weak = cfg(TickPolicy::kNoDefense);
  weak.bot_rate = 0.05;
  TickConfig strong = cfg(TickPolicy::kNoDefense);
  strong.bot_rate = 1.0;
  const TickResults rw = TickSim(w.graph, w.placement, weak).run();
  const TickResults rs = TickSim(w.graph, w.placement, strong).run();
  EXPECT_GT(rw.legit_legit_frac, rs.legit_legit_frac);
}

}  // namespace
}  // namespace floc
