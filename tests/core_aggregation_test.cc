#include "core/aggregation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace floc {
namespace {

int distinct_aggregates(const AggregationPlan& plan) {
  std::set<std::uint64_t> keys;
  for (const auto& [k, e] : plan.mapping) keys.insert(e.aggregate.key());
  return static_cast<int>(keys.size());
}

TEST(Aggregator, IdentityWhenUnderBudget) {
  AggregationConfig cfg;
  cfg.s_max = 100;
  cfg.aggregate_legit = false;
  Aggregator agg(cfg);
  const auto plan = agg.plan({{PathId::of({1, 2}), 0.1, 10.0},
                              {PathId::of({1, 3}), 0.9, 10.0}});
  EXPECT_EQ(plan.identifier_count, 2);
  EXPECT_EQ(plan.attack_aggregations, 0);
  EXPECT_EQ(plan.entry_for(PathId::of({1, 2})).aggregate, PathId::of({1, 2}));
}

TEST(Aggregator, AttackPathsAggregatedToMeetBudget) {
  AggregationConfig cfg;
  cfg.s_max = 3;  // 2 legit + 4 attack -> attack must shrink to 1
  cfg.e_th = 0.5;
  cfg.aggregate_legit = false;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({1, 10}), 0.9, 10.0},  // legit
      {PathId::of({2, 11}), 0.95, 10.0}, // legit
      {PathId::of({3, 20}), 0.1, 50.0},  // attack, shared prefix {3}
      {PathId::of({3, 21}), 0.2, 50.0},
      {PathId::of({3, 22}), 0.15, 50.0},
      {PathId::of({3, 23}), 0.1, 50.0},
  });
  EXPECT_LE(distinct_aggregates(plan), 3);
  // Legit paths untouched.
  EXPECT_EQ(plan.entry_for(PathId::of({1, 10})).aggregate, PathId::of({1, 10}));
  // Attack paths collapsed onto the shared {3} prefix with ONE share.
  const auto& e = plan.entry_for(PathId::of({3, 20}));
  EXPECT_TRUE(e.is_attack);
  EXPECT_EQ(e.aggregate, PathId::of({3}));
  EXPECT_DOUBLE_EQ(e.share_weight, 1.0);
  EXPECT_GE(plan.attack_aggregations, 1);
}

TEST(Aggregator, GreedyPicksLowestConformanceSubtree) {
  AggregationConfig cfg;
  cfg.s_max = 3;  // 4 attack paths, 0 legit: need reduction 1
  cfg.e_th = 0.5;
  cfg.aggregate_legit = false;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({1, 10}), 0.40, 10.0},  // subtree {1}: mean E = 0.40
      {PathId::of({1, 11}), 0.40, 10.0},
      {PathId::of({2, 20}), 0.05, 10.0},  // subtree {2}: mean E = 0.05
      {PathId::of({2, 21}), 0.05, 10.0},
  });
  // The {2} subtree (lowest mean conformance) must be the one aggregated.
  EXPECT_EQ(plan.entry_for(PathId::of({2, 20})).aggregate, PathId::of({2}));
  EXPECT_EQ(plan.entry_for(PathId::of({1, 10})).aggregate, PathId::of({1, 10}));
}

TEST(Aggregator, ReplacementPrefersSingleCoveringNode) {
  // Needing a large reduction, one ancestor aggregation covering everything
  // should replace multiple sibling aggregations when cheaper in total.
  AggregationConfig cfg;
  cfg.s_max = 1;
  cfg.e_th = 0.5;
  cfg.aggregate_legit = false;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({9, 1, 10}), 0.1, 1.0},
      {PathId::of({9, 1, 11}), 0.1, 1.0},
      {PathId::of({9, 2, 20}), 0.2, 1.0},
      {PathId::of({9, 2, 21}), 0.2, 1.0},
  });
  EXPECT_EQ(distinct_aggregates(plan), 1);
  EXPECT_EQ(plan.entry_for(PathId::of({9, 1, 10})).aggregate, PathId::of({9}));
}

TEST(Aggregator, LegitAggregationEqualizesPerFlowBandwidth) {
  // Two sibling legit domains with 15 and 30 sources (Fig. 9 setup):
  // cost is 0 (equal E) and the bandwidth guard passes (factor 1.33 < 1.5),
  // so they merge with combined shares.
  AggregationConfig cfg;
  cfg.s_max = 100;
  cfg.legit_max_increase = 0.5;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({1, 2}), 1.0, 15.0},
      {PathId::of({1, 3}), 1.0, 30.0},
  });
  const auto& e = plan.entry_for(PathId::of({1, 2}));
  EXPECT_EQ(e.aggregate, PathId::of({1}));
  EXPECT_DOUBLE_EQ(e.share_weight, 2.0);  // keeps both paths' shares
  EXPECT_FALSE(e.is_attack);
  EXPECT_EQ(plan.legit_aggregations, 1);
}

TEST(Aggregator, CovertGuardBlocksWideFlowImbalance) {
  // A "legitimate-looking" covert path with 600 flows must not merge with a
  // 30-flow path: its per-flow gain would be 2*600/630 = 1.9 > 1.5.
  AggregationConfig cfg;
  cfg.legit_max_increase = 0.5;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({1, 2}), 1.0, 30.0},
      {PathId::of({1, 3}), 1.0, 600.0},
  });
  EXPECT_EQ(plan.legit_aggregations, 0);
  EXPECT_EQ(plan.entry_for(PathId::of({1, 3})).aggregate, PathId::of({1, 3}));
}

TEST(Aggregator, LegitAggregationSkippedWhenCostPositive) {
  // Low-conformance sibling with more flows: merging lowers flow-weighted
  // conformance (Eq. IV.8 positive cost) -> no aggregation.
  AggregationConfig cfg;
  cfg.e_th = 0.5;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({1, 2}), 1.0, 10.0},
      {PathId::of({1, 3}), 0.6, 90.0},  // still above e_th (legit tree)
  });
  EXPECT_EQ(plan.legit_aggregations, 0);
}

TEST(Aggregator, EveryInputPathAppearsInMapping) {
  AggregationConfig cfg;
  cfg.s_max = 2;
  Aggregator agg(cfg);
  std::vector<PathSnapshot> snaps;
  for (AsNumber i = 0; i < 20; ++i) {
    snaps.push_back({PathId::of({i % 4 + 1, 100 + i}), i < 10 ? 0.1 : 0.9,
                     5.0});
  }
  const auto plan = agg.plan(snaps);
  for (const auto& s : snaps) {
    EXPECT_EQ(plan.mapping.count(s.path.key()), 1u) << s.path.to_string();
  }
}

TEST(Aggregator, RootFallbackWhenNoSharedPrefix) {
  // Attack paths with disjoint prefixes can only aggregate at the root
  // (empty prefix), which still satisfies the budget.
  AggregationConfig cfg;
  cfg.s_max = 1;
  cfg.e_th = 0.5;
  cfg.aggregate_legit = false;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({1, 10}), 0.1, 1.0},
      {PathId::of({2, 20}), 0.1, 1.0},
      {PathId::of({3, 30}), 0.1, 1.0},
  });
  EXPECT_EQ(distinct_aggregates(plan), 1);
  EXPECT_EQ(plan.entry_for(PathId::of({1, 10})).aggregate.length(), 0);
}

TEST(Aggregator, AttackDisabledLeavesAttackPathsAlone) {
  AggregationConfig cfg;
  cfg.s_max = 1;
  cfg.aggregate_attack = false;
  cfg.aggregate_legit = false;
  Aggregator agg(cfg);
  const auto plan = agg.plan({
      {PathId::of({1, 10}), 0.1, 1.0},
      {PathId::of({1, 11}), 0.1, 1.0},
  });
  EXPECT_EQ(distinct_aggregates(plan), 2);
}

// A random traffic tree: up to `n` distinct paths of 1-4 hops over small AS
// alphabets, so prefixes are shared at every depth and some paths end at
// internal nodes. Conformance and flow counts come from small sets of
// exactly representable values, so candidate costs tie exactly and every
// sum is the same in any order.
std::vector<PathSnapshot> random_tree(Rng& rng, int n, double e_th_floor) {
  std::vector<PathSnapshot> out;
  std::set<std::uint64_t> keys;
  for (int i = 0; i < n; ++i) {
    PathId p;
    const int hops = 1 + static_cast<int>(rng.uniform_int(4));
    for (int h = 0; h < hops; ++h) {
      p.push_origin(static_cast<AsNumber>(1 + rng.uniform_int(h == 0 ? 3 : 4)));
    }
    if (!keys.insert(p.key()).second) continue;
    const double conformance =
        e_th_floor +
        (1.0 - e_th_floor) * static_cast<double>(rng.uniform_int(5)) / 4.0;
    const double flows = static_cast<double>(1 + rng.uniform_int(4));
    out.push_back(PathSnapshot{p, conformance, flows, rng.chance(0.1)});
  }
  return out;
}

// Aggregator::plan depends only on the set of input paths: a shuffled input
// maps every origin to the same group with the same shares.
void expect_plan_order_free(const AggregationConfig& cfg, double e_th_floor,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PathSnapshot> snaps = random_tree(rng, 40, e_th_floor);
  const Aggregator agg(cfg);
  const AggregationPlan want = agg.plan(snaps);
  for (int shuffle = 0; shuffle < 8; ++shuffle) {
    for (std::size_t i = snaps.size(); i > 1; --i) {
      std::swap(snaps[i - 1], snaps[rng.uniform_int(i)]);
    }
    const AggregationPlan got = agg.plan(snaps);
    EXPECT_EQ(got.identifier_count, want.identifier_count);
    for (const PathSnapshot& s : snaps) {
      const auto& g = got.entry_for(s.path);
      const auto& w = want.entry_for(s.path);
      EXPECT_EQ(g.group_key(), w.group_key())
          << s.path.to_string() << " seed " << seed << " shuffle " << shuffle;
      EXPECT_EQ(g.share_weight, w.share_weight)
          << s.path.to_string() << " seed " << seed << " shuffle " << shuffle;
    }
  }
}

TEST(Aggregator, PlanDependsOnlyOnTheSetOfPaths) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    // Legitimate-path aggregation (Eq. IV.8) with a loose budget, over
    // mixed attack and legitimate paths.
    AggregationConfig loose;
    expect_plan_order_free(loose, 0.0, seed);
    // |S|_max-limited: Algorithm 1 must shrink the attack tree (about 23
    // legitimate and 15 attack paths), but not all the way to one.
    AggregationConfig tight;
    tight.s_max = 30;
    expect_plan_order_free(tight, 0.0, seed);
    // Legitimate paths alone exceed the budget: enforce_legit_budget merges,
    // and at the larger budgets stops part-way through its candidates.
    for (const int s_max : {5, 12, 20}) {
      AggregationConfig legit_budget;
      legit_budget.s_max = s_max;
      expect_plan_order_free(legit_budget, 0.5, seed);
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace floc
