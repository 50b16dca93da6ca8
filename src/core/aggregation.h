// Path-identifier aggregation (Section IV-C).
//
// Attack-path aggregation (IV-C.1): when the number of outstanding path
// identifiers exceeds |S|_max, the identifiers of the least-conformant
// (most bot-contaminated) domains are collapsed into shared prefixes so that
// every remaining identifier keeps a minimum guaranteed bandwidth. Algorithm 1
// is a greedy solver for the conformance-maximization problem (Eq. IV.7).
//
// Legitimate-path aggregation (IV-C.2): legitimate paths are merged where the
// net conformance change C^L (Eq. IV.8) is non-positive, to give flows of
// differently-populated domains the same per-flow bandwidth — unless merging
// would raise any member path's per-flow allocation by more than
// `legit_max_increase` (the covert-path guard).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/traffic_tree.h"

namespace floc {

struct AggregationConfig {
  int s_max = 1 << 30;           // |S|_max: max bandwidth-guaranteed path ids
  double e_th = 0.5;             // conformance threshold splitting T^A / T^L
  double legit_max_increase = 0.5;  // covert guard: max per-flow bw increase
  bool aggregate_legit = true;
  bool aggregate_attack = true;
};

struct AggregationPlan {
  struct Entry {
    PathId aggregate;     // identifier the origin path now maps to
    double share_weight;  // bandwidth shares of that aggregate
    int member_count;     // paths folded into the aggregate
    bool is_attack;       // aggregate formed from the attack tree
    // Grouping key for router state: a *merged* attack aggregate and a
    // merged legitimate aggregate may share the same prefix (e.g. both fall
    // back to the root) and must not share a token bucket / quota. Identity
    // mappings keep the plain path key so a path whose conformance crosses
    // the threshold retains its aggregate state (bucket, attack flag).
    std::uint64_t group_key() const {
      const bool merged_attack = is_attack && member_count >= 2;
      return aggregate.key() ^ (merged_attack ? 0x8000000000000000ULL : 0ULL);
    }
  };
  // Keyed by PathId::key() of the *origin* path.
  std::unordered_map<std::uint64_t, Entry> mapping;
  int identifier_count = 0;   // distinct aggregates after the plan
  double attack_cost = 0.0;   // total aggregation cost of the attack plan
  int attack_aggregations = 0;
  int legit_aggregations = 0;

  const Entry& entry_for(const PathId& origin) const {
    return mapping.at(origin.key());
  }
};

class Aggregator {
 public:
  explicit Aggregator(AggregationConfig cfg) : cfg_(cfg) {}

  // Compute an aggregation plan for the given snapshot of origin paths.
  // Every input path appears in the output mapping (identity-mapped with
  // weight 1 if untouched). The entries depend only on the set of input
  // paths, not on their order.
  AggregationPlan plan(const std::vector<PathSnapshot>& paths) const;

  const AggregationConfig& config() const { return cfg_; }

 private:
  // Greedy Algorithm 1 over the attack tree: returns chosen node indices.
  std::vector<int> choose_attack_nodes(const TrafficTree& tree,
                                       int needed_reduction) const;

  void apply_attack_plan(const TrafficTree& tree, const std::vector<int>& nodes,
                         AggregationPlan* plan) const;
  void plan_legit(const std::vector<PathSnapshot>& legit,
                  AggregationPlan* plan) const;
  void enforce_legit_budget(const std::vector<PathSnapshot>& legit,
                            AggregationPlan* plan) const;

  AggregationConfig cfg_;
};

}  // namespace floc
