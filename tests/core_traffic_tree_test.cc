#include "core/traffic_tree.h"

#include <gtest/gtest.h>

namespace floc {
namespace {

std::vector<PathSnapshot> sample_paths() {
  // Tree:
  //   root
  //   +-- 1
  //   |   +-- 1,3
  //   |   +-- 1,4
  //   +-- 2
  //       +-- 2,5
  //       +-- 2,6
  return {
      {PathId::of({1, 3}), 0.9, 10.0},
      {PathId::of({1, 4}), 0.3, 20.0},
      {PathId::of({2, 5}), 0.2, 30.0},
      {PathId::of({2, 6}), 0.4, 40.0},
  };
}

TEST(TrafficTree, BuildsPrefixStructure) {
  TrafficTree t(sample_paths());
  // root + {1} + {1,3} + {1,4} + {2} + {2,5} + {2,6} = 7 nodes.
  EXPECT_EQ(t.node_count(), 7);
  EXPECT_EQ(t.node(t.root()).leaf_count, 4);
  EXPECT_EQ(t.node(t.root()).children.size(), 2u);
}

TEST(TrafficTree, SubtreeAccumulations) {
  TrafficTree t(sample_paths());
  // Find node {1}.
  int n1 = -1;
  for (int i = 0; i < t.node_count(); ++i) {
    if (t.node(i).prefix == PathId::of({1})) n1 = i;
  }
  ASSERT_GE(n1, 0);
  EXPECT_EQ(t.node(n1).leaf_count, 2);
  EXPECT_DOUBLE_EQ(t.node(n1).conf_sum, 1.2);
  EXPECT_DOUBLE_EQ(t.node(n1).flow_sum, 30.0);
  EXPECT_DOUBLE_EQ(t.mean_conformance(n1), 0.6);
}

TEST(TrafficTree, ReductionCounts) {
  TrafficTree t(sample_paths());
  EXPECT_EQ(t.reduction(t.root()), 3);  // 4 paths -> 1
  for (int i = 0; i < t.node_count(); ++i) {
    if (t.node(i).leaf_index >= 0) {
      EXPECT_EQ(t.reduction(i), 0);
    }
  }
}

TEST(TrafficTree, AncestorRelation) {
  TrafficTree t(sample_paths());
  int n1 = -1, n13 = -1, n2 = -1;
  for (int i = 0; i < t.node_count(); ++i) {
    if (t.node(i).prefix == PathId::of({1})) n1 = i;
    if (t.node(i).prefix == PathId::of({1, 3})) n13 = i;
    if (t.node(i).prefix == PathId::of({2})) n2 = i;
  }
  EXPECT_TRUE(t.is_ancestor(t.root(), n13));
  EXPECT_TRUE(t.is_ancestor(n1, n13));
  EXPECT_TRUE(t.is_ancestor(n1, n1));
  EXPECT_FALSE(t.is_ancestor(n13, n1));
  EXPECT_FALSE(t.is_ancestor(n2, n13));
}

TEST(TrafficTree, InternalNodes) {
  TrafficTree t(sample_paths());
  const auto internal = t.internal_nodes();
  // {1} and {2} have two leaves each; leaves themselves excluded.
  EXPECT_EQ(internal.size(), 2u);
  const auto with_root = t.internal_nodes(/*include_root=*/true);
  EXPECT_EQ(with_root.size(), 3u);
}

TEST(TrafficTree, PathsUnder) {
  TrafficTree t(sample_paths());
  int n2 = -1;
  for (int i = 0; i < t.node_count(); ++i) {
    if (t.node(i).prefix == PathId::of({2})) n2 = i;
  }
  auto under = t.paths_under(n2);
  std::sort(under.begin(), under.end());
  EXPECT_EQ(under, (std::vector<int>{2, 3}));
}

TEST(TrafficTree, LegitAggregationCostEqIV8) {
  // Equal conformance => cost 0 (mean == weighted mean).
  TrafficTree eq({{PathId::of({1, 2}), 0.8, 10.0}, {PathId::of({1, 3}), 0.8, 40.0}});
  int n1 = -1;
  for (int i = 0; i < eq.node_count(); ++i) {
    if (eq.node(i).prefix == PathId::of({1})) n1 = i;
  }
  EXPECT_NEAR(eq.legit_aggregation_cost(n1), 0.0, 1e-12);

  // Low-conformance path with MORE flows: weighted mean < mean => positive
  // cost (aggregation would hurt), Eq. IV.8.
  TrafficTree bad({{PathId::of({1, 2}), 1.0, 10.0}, {PathId::of({1, 3}), 0.2, 90.0}});
  for (int i = 0; i < bad.node_count(); ++i) {
    if (bad.node(i).prefix == PathId::of({1})) n1 = i;
  }
  EXPECT_GT(bad.legit_aggregation_cost(n1), 0.0);

  // Low-conformance path with FEWER flows: weighted mean > mean => negative
  // cost (aggregation improves flow-weighted conformance).
  TrafficTree good({{PathId::of({1, 2}), 1.0, 90.0}, {PathId::of({1, 3}), 0.2, 10.0}});
  for (int i = 0; i < good.node_count(); ++i) {
    if (good.node(i).prefix == PathId::of({1})) n1 = i;
  }
  EXPECT_LT(good.legit_aggregation_cost(n1), 0.0);
}

TEST(TrafficTree, PathTerminatingAtInternalNode) {
  // {1} is both a full path and a prefix of {1,2}.
  TrafficTree t({{PathId::of({1}), 0.5, 5.0}, {PathId::of({1, 2}), 0.9, 5.0}});
  int n1 = -1;
  for (int i = 0; i < t.node_count(); ++i) {
    if (t.node(i).prefix == PathId::of({1})) n1 = i;
  }
  ASSERT_GE(n1, 0);
  EXPECT_EQ(t.node(n1).leaf_index, 0);
  EXPECT_EQ(t.node(n1).leaf_count, 2);
}

TEST(TrafficTree, SinglePathDegenerate) {
  TrafficTree t({{PathId::of({1, 2, 3}), 0.7, 3.0}});
  EXPECT_EQ(t.node(t.root()).leaf_count, 1);
  EXPECT_TRUE(t.internal_nodes().empty());
  EXPECT_EQ(t.reduction(t.root()), 0);
}

}  // namespace
}  // namespace floc
