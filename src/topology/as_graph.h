// AS-level routing topology for Internet-scale simulations (Section VII-A).
//
// A Skitter map is a set of routing paths from one vantage point to a few
// hundred thousand hosts — i.e., a routing *tree*. We model it directly as a
// tree of ASes rooted at the attack target's AS; every AS has one route to
// the target (its parent chain), matching how the paper's simulator forwards
// packets one hop per tick toward the destination.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/packet.h"

namespace floc {

class AsGraph {
 public:
  struct AsNode {
    AsNumber asn = 0;
    int parent = -1;            // -1 for the root (target-side AS)
    int depth = 0;              // hops to the root
    std::vector<int> children;
    double population = 1.0;    // relative host population (for placement)
  };

  int add_as(AsNumber asn, int parent, double population);

  int size() const { return static_cast<int>(nodes_.size()); }
  const AsNode& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  AsNode& node(int i) { return nodes_[static_cast<std::size_t>(i)]; }
  int root() const { return 0; }

  // Path identifier of AS i as seen at the root: nearest-to-root AS first
  // (Section III-A ordering), truncated to PathId::kMaxHops.
  PathId path_of(int i) const;

  // Chain of node indices from AS i up to (excluding) the root.
  std::vector<int> chain_to_root(int i) const;

  int max_depth() const;
  double mean_depth() const;

 private:
  std::vector<AsNode> nodes_;
};

}  // namespace floc
