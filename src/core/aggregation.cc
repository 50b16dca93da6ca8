#include "core/aggregation.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/dense_table.h"

namespace floc {
namespace {

// Identity entry: path keeps its own identifier and one bandwidth share.
AggregationPlan::Entry identity(const PathSnapshot& s, bool attack) {
  return {s.path, 1.0, 1, attack};
}

// Distinct group keys in the plan.
int count_ids(const AggregationPlan& plan) {
  DenseTable<std::uint64_t, bool> seen;
  for (const auto& [k, e] : plan.mapping) seen.try_emplace(e.group_key());
  return static_cast<int>(seen.size());
}

}  // namespace

AggregationPlan Aggregator::plan(const std::vector<PathSnapshot>& paths) const {
  AggregationPlan out;

  std::vector<PathSnapshot> legit, attack;
  for (const auto& p : paths) {
    (p.conformance < cfg_.e_th ? attack : legit).push_back(p);
  }

  // Default: identity mapping for everyone.
  for (const auto& p : legit) out.mapping[p.path.key()] = identity(p, false);
  for (const auto& p : attack) out.mapping[p.path.key()] = identity(p, true);

  // --- Attack-path aggregation (Algorithm 1) -----------------------------
  // Constraint: sum of attack identifiers <= s_max - |S^L|.
  if (cfg_.aggregate_attack && !attack.empty()) {
    const int budget =
        std::max(1, cfg_.s_max - static_cast<int>(legit.size()));
    const int needed = static_cast<int>(attack.size()) - budget;
    if (needed > 0) {
      TrafficTree tree(attack);
      const std::vector<int> nodes = choose_attack_nodes(tree, needed);
      apply_attack_plan(tree, nodes, &out);
    }
  }

  // --- Legitimate-path aggregation (Eq. IV.8) ----------------------------
  if (cfg_.aggregate_legit && legit.size() >= 2) {
    plan_legit(legit, &out);
  }

  out.identifier_count = count_ids(out);

  // --- Budget enforcement over legitimate identifiers --------------------
  // When the legitimate identifiers alone exceed the budget (|S^L| > s_max,
  // e.g. the paper's A-100 runs with 200 legitimate ASes), merge legitimate
  // paths, most flow-balanced subtrees first; merged paths keep their
  // combined bandwidth shares (Section IV-C.2). Iterated: each pass merges
  // disjoint subtrees; re-running over the merged units lets their ancestors
  // combine further until the budget holds or no merge remains.
  if (cfg_.aggregate_legit && legit.size() >= 2) {
    for (int pass = 0; pass < 6 && out.identifier_count > cfg_.s_max; ++pass) {
      const int before = out.identifier_count;
      enforce_legit_budget(legit, &out);
      out.identifier_count = count_ids(out);
      if (out.identifier_count == before) break;  // no progress possible
    }
  }
  return out;
}

std::vector<int> Aggregator::choose_attack_nodes(const TrafficTree& tree,
                                                 int needed_reduction) const {
  // Candidates: internal nodes (>= 2 paths beneath). Aggregation "starts from
  // nearby domains (longest postfix-matching path identifiers)": among equal
  // costs, prefer deeper (longer-prefix) nodes — they localize attack effects
  // and keep RTT-homogeneous flows together. The prefix key breaks the
  // remaining ties, so the choice does not depend on the input order.
  std::vector<int> candidates = tree.internal_nodes(/*include_root=*/true);
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const double ca = tree.mean_conformance(a);
    const double cb = tree.mean_conformance(b);
    if (ca != cb) return ca < cb;
    const PathId& pa = tree.node(a).prefix;
    const PathId& pb = tree.node(b).prefix;
    if (pa.length() != pb.length()) return pa.length() > pb.length();
    return pa.key() < pb.key();
  });

  std::vector<int> chosen;
  int reduction = 0;
  double total_cost = 0.0;
  for (int cand : candidates) {
    if (reduction >= needed_reduction) break;
    bool overlaps = false;
    for (int c : chosen) {
      if (tree.is_ancestor(c, cand) || tree.is_ancestor(cand, c)) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    chosen.push_back(cand);
    reduction += tree.reduction(cand);
    total_cost += tree.mean_conformance(cand);
  }

  // Replacement step (Algorithm 1, step 2): a single node whose subtree
  // covers the whole current solution replaces it when its cost is lower
  // than the solution's total cost and it reduces at least as much.
  if (chosen.size() >= 2) {
    int best = -1;
    double best_cost = total_cost;
    for (int cand : candidates) {
      bool covers_all = true;
      for (int c : chosen) {
        if (!tree.is_ancestor(cand, c)) {
          covers_all = false;
          break;
        }
      }
      if (!covers_all) continue;
      if (tree.reduction(cand) < needed_reduction) continue;
      const double cost = tree.mean_conformance(cand);
      if (cost < best_cost) {
        best = cand;
        best_cost = cost;
      }
    }
    if (best >= 0) chosen = {best};
  }

  // Fallback: if the needed reduction is still not met (degenerate trees),
  // aggregate everything at the root.
  int total_reduction = 0;
  for (int c : chosen) total_reduction += tree.reduction(c);
  if (total_reduction < needed_reduction) chosen = {tree.root()};
  return chosen;
}

void Aggregator::apply_attack_plan(const TrafficTree& tree,
                                   const std::vector<int>& nodes,
                                   AggregationPlan* plan) const {
  for (int node : nodes) {
    const auto members = tree.paths_under(node);
    if (members.size() < 2) continue;
    const PathId agg_id = tree.node(node).prefix;
    for (int pi : members) {
      const PathSnapshot& s = tree.paths()[static_cast<std::size_t>(pi)];
      // An attack aggregate receives a SINGLE bandwidth share regardless of
      // member count: that is the penalty that returns bandwidth to
      // legitimate paths (Section III-C).
      plan->mapping[s.path.key()] =
          AggregationPlan::Entry{agg_id, 1.0, static_cast<int>(members.size()),
                                 /*is_attack=*/true};
    }
    plan->attack_cost += tree.mean_conformance(node);
    ++plan->attack_aggregations;
  }
}

void Aggregator::plan_legit(const std::vector<PathSnapshot>& legit,
                            AggregationPlan* plan) const {
  TrafficTree tree(legit);
  // Consider internal nodes bottom-up (deepest first) so the most specific
  // beneficial merge wins; a path joins at most one aggregate.
  std::vector<int> candidates = tree.internal_nodes(/*include_root=*/false);
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    return tree.node(a).prefix.length() > tree.node(b).prefix.length();
  });

  std::vector<bool> taken(legit.size(), false);
  for (int node : candidates) {
    // Eq. IV.8: aggregate where the net conformance change is <= 0 (merging
    // cannot lower the flow-weighted conformance of the link).
    if (tree.legit_aggregation_cost(node) > 1e-12) continue;

    const auto members = tree.paths_under(node);
    if (members.size() < 2) continue;
    bool any_taken = false;
    bool any_suspect = false;
    double flow_sum = 0.0;
    for (int pi : members) {
      if (taken[static_cast<std::size_t>(pi)]) any_taken = true;
      if (tree.paths()[static_cast<std::size_t>(pi)].suspect) any_suspect = true;
      flow_sum += tree.paths()[static_cast<std::size_t>(pi)].flows;
    }
    if (any_taken || any_suspect || flow_sum <= 0.0) continue;

    // Covert guard: per-flow bandwidth of member j changes by factor
    // k*n_j/sum(n); reject the merge if any member gains more than
    // 1 + legit_max_increase (Section IV-C.2).
    const double k = static_cast<double>(members.size());
    bool guard_ok = true;
    for (int pi : members) {
      const double nj = tree.paths()[static_cast<std::size_t>(pi)].flows;
      if (nj <= 0.0) continue;
      const double factor = k * nj / flow_sum;
      if (factor > 1.0 + cfg_.legit_max_increase + 1e-12) {
        guard_ok = false;
        break;
      }
    }
    if (!guard_ok) continue;

    const PathId agg_id = tree.node(node).prefix;
    for (int pi : members) {
      taken[static_cast<std::size_t>(pi)] = true;
      const PathSnapshot& s = tree.paths()[static_cast<std::size_t>(pi)];
      // A legitimate aggregate keeps the member paths' combined shares:
      // bandwidth proportional to the number of aggregated paths.
      plan->mapping[s.path.key()] = AggregationPlan::Entry{
          agg_id, k, static_cast<int>(members.size()), /*is_attack=*/false};
    }
    ++plan->legit_aggregations;
  }
}

void Aggregator::enforce_legit_budget(const std::vector<PathSnapshot>& legit,
                                      AggregationPlan* plan) const {
  // One unit per current legitimate identifier: origin paths already merged
  // by plan_legit act as one representative snapshot at their aggregate
  // prefix. Units and their origins follow the input order.
  struct Unit {
    PathSnapshot rep;
    std::vector<std::uint64_t> origins;
  };
  DenseTable<std::uint64_t, Unit> units_by_key;
  for (const auto& s : legit) {
    const auto& e = plan->mapping.at(s.path.key());
    auto [it, inserted] = units_by_key.try_emplace(e.aggregate.key());
    Unit& u = it->second;
    if (inserted) u.rep = PathSnapshot{e.aggregate, 0.0, 0.0, false};
    u.rep.flows += s.flows;
    u.rep.conformance = std::max(u.rep.conformance, s.conformance);
    u.rep.suspect = u.rep.suspect || s.suspect;
    u.origins.push_back(s.path.key());
  }
  DenseTable<std::uint64_t, bool> attack_ids;
  for (const auto& [k, e] : plan->mapping) {
    if (e.is_attack) attack_ids.try_emplace(e.aggregate.key());
  }

  int legit_budget = cfg_.s_max - static_cast<int>(attack_ids.size());
  if (legit_budget < 1) legit_budget = 1;
  if (static_cast<int>(units_by_key.size()) <= legit_budget) return;

  std::vector<PathSnapshot> units;
  units.reserve(units_by_key.size());
  for (const auto& [k, u] : units_by_key) units.push_back(u.rep);

  TrafficTree tree(units);
  // Candidates ordered by flow imbalance (the covert-guard metric): merge
  // the most balanced subtrees first, deeper prefixes before shallower, then
  // by prefix key.
  struct Cand {
    int node;
    double imbalance;
  };
  std::vector<Cand> cands;
  // The root (empty prefix) is excluded: merging every legitimate domain
  // into one identifier would pool flows with widely different RTTs, which
  // Section IV-C.1 explicitly avoids. The budget is met as far as non-root
  // merges allow.
  for (int node : tree.internal_nodes(/*include_root=*/false)) {
    const auto members = tree.paths_under(node);
    double flow_sum = 0.0, max_nj = 0.0;
    for (int pi : members) {
      flow_sum += tree.paths()[static_cast<std::size_t>(pi)].flows;
      max_nj = std::max(max_nj, tree.paths()[static_cast<std::size_t>(pi)].flows);
    }
    const double k = static_cast<double>(members.size());
    cands.push_back(
        Cand{node, flow_sum > 0.0 ? k * max_nj / flow_sum : 1e18});
  }
  std::sort(cands.begin(), cands.end(), [&](const Cand& a, const Cand& b) {
    if (a.imbalance != b.imbalance) return a.imbalance < b.imbalance;
    const PathId& pa = tree.node(a.node).prefix;
    const PathId& pb = tree.node(b.node).prefix;
    if (pa.length() != pb.length()) return pa.length() > pb.length();
    return pa.key() < pb.key();
  });

  int current = static_cast<int>(units.size());
  std::vector<bool> taken(units.size(), false);
  for (const Cand& c : cands) {
    if (current <= legit_budget) break;
    const auto members = tree.paths_under(c.node);
    bool any_taken = false;
    bool any_suspect = false;
    double shares = 0.0;
    for (int pi : members) {
      if (taken[static_cast<std::size_t>(pi)]) any_taken = true;
      if (tree.paths()[static_cast<std::size_t>(pi)].suspect) any_suspect = true;
    }
    if (any_taken || any_suspect || members.size() < 2) continue;
    const PathId agg_id = tree.node(c.node).prefix;
    // Re-map every origin path behind each unit; shares combine.
    int origin_count = 0;
    const auto origins_of = [&](int pi) -> const std::vector<std::uint64_t>& {
      return units_by_key
          .find(tree.paths()[static_cast<std::size_t>(pi)].path.key())
          ->second.origins;
    };
    for (int pi : members) {
      taken[static_cast<std::size_t>(pi)] = true;
      origin_count += static_cast<int>(origins_of(pi).size());
    }
    shares = static_cast<double>(origin_count);
    for (int pi : members) {
      for (std::uint64_t okey : origins_of(pi)) {
        plan->mapping[okey] = AggregationPlan::Entry{
            agg_id, shares, origin_count, /*is_attack=*/false};
      }
    }
    current -= static_cast<int>(members.size()) - 1;
    ++plan->legit_aggregations;
  }
}

}  // namespace floc
