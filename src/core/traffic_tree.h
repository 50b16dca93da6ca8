// Traffic tree T_R0 (Section IV-C): the prefix tree of the path identifiers
// carried by active flows, rooted at the congested router. Aggregating "at a
// node" collapses every path in that node's subtree into the node's prefix.
//
// The tree is built from a snapshot of per-path statistics and consumed by
// the aggregation planner; it holds no live router state, which keeps the
// aggregation algorithms pure and unit-testable.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/packet.h"

namespace floc {

// Snapshot of one origin path as seen at the congested router.
struct PathSnapshot {
  PathId path;
  double conformance = 1.0;  // E_Ri
  double flows = 0.0;        // n_i (accounting flows)
  // Currently attack-flagged or over-subscribed: such a path may still sit
  // above the conformance threshold transiently, but must never be merged
  // into a *legitimate* aggregate (it would dilute the detection signal and
  // soak the merged paths' bandwidth — same rationale as the covert guard).
  bool suspect = false;
};

class TrafficTree {
 public:
  struct Node {
    PathId prefix;            // path identifier of this tree position
    int parent = -1;
    std::vector<int> children;
    int leaf_index = -1;      // >= 0 iff an input path terminates here
    // Subtree accumulations over terminating paths:
    int leaf_count = 0;       // number of paths in the subtree
    double conf_sum = 0.0;    // sum of their conformance values
    double flow_sum = 0.0;    // sum of their flow counts
    double conf_flow_sum = 0.0;  // sum of conformance*flows
  };

  explicit TrafficTree(const std::vector<PathSnapshot>& paths);

  const Node& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  int root() const { return 0; }
  const std::vector<PathSnapshot>& paths() const { return paths_; }

  // Mean conformance of the paths below node i — the aggregation cost C^A
  // (Eq. IV.7 discussion).
  double mean_conformance(int i) const;

  // Net conformance change of aggregating at node i (Eq. IV.8):
  // mean(E_j) - sum(E_j*n_j)/sum(n_j).
  double legit_aggregation_cost(int i) const;

  // Path-count reduction achieved by aggregating at node i.
  int reduction(int i) const;

  // True if a is an ancestor of b (or equal).
  bool is_ancestor(int a, int b) const;

  // Indices of all internal candidate nodes (more than one path beneath,
  // excluding the synthetic root unless it is the only option).
  std::vector<int> internal_nodes(bool include_root = false) const;

  // Leaf path indices (into paths()) under node i.
  std::vector<int> paths_under(int i) const;

 private:
  int child_with_as(int node, AsNumber as) const;

  std::vector<Node> nodes_;
  std::vector<PathSnapshot> paths_;
};

}  // namespace floc
