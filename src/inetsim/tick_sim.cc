#include "inetsim/tick_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "core/aggregation.h"

namespace floc {

const char* to_string(TickPolicy p) {
  switch (p) {
    case TickPolicy::kNoDefense: return "ND";
    case TickPolicy::kFairPriority: return "FF";
    case TickPolicy::kFloc: return "FLoc";
  }
  return "?";
}

TickSim::TickSim(const AsGraph& graph, const SourcePlacement& placement,
                 TickConfig cfg)
    : graph_(graph), cfg_(cfg), rng_(cfg.seed) {
  const auto n_as = static_cast<std::size_t>(graph_.size());
  queue_.resize(n_as);
  arrivals_.resize(n_as);
  arrivals_next_.resize(n_as);
  as_state_.resize(n_as);
  std::size_t n_flows = 0;
  for (std::size_t as = 0; as < n_as; ++as) {
    n_flows += static_cast<std::size_t>(placement.legit_per_as[as] +
                                        placement.bots_per_as[as]);
  }
  flows_.reserve(n_flows);

  for (int as = 0; as < graph_.size(); ++as) {
    const bool attack_as = placement.bots_per_as[static_cast<std::size_t>(as)] > 0;
    const int rtt = std::max(
        2, 2 * graph_.node(as).depth * cfg_.router_hops_per_as + 2);
    for (int i = 0; i < placement.legit_per_as[static_cast<std::size_t>(as)]; ++i) {
      Flow f;
      f.origin_as = as;
      f.is_bot = false;
      f.in_attack_as = attack_as;
      f.rtt_ticks = rtt;
      f.next_epoch = static_cast<int>(rng_.uniform_int(static_cast<std::uint64_t>(rtt)));
      flows_.push_back(f);
      as_state_[static_cast<std::size_t>(as)].flows++;
    }
    for (int i = 0; i < placement.bots_per_as[static_cast<std::size_t>(as)]; ++i) {
      Flow f;
      f.origin_as = as;
      f.is_bot = true;
      f.in_attack_as = true;
      f.emit_credit = rng_.uniform();  // desynchronize bot emissions
      flows_.push_back(f);
      as_state_[static_cast<std::size_t>(as)].flows++;
    }
  }

  // Initial grouping: every active origin AS is its own path identifier.
  group_count_ = 0;
  for (int as = 0; as < graph_.size(); ++as) {
    auto& st = as_state_[static_cast<std::size_t>(as)];
    if (st.flows > 0) {
      st.agg_group = group_count_++;
    }
  }
  group_weight_.assign(static_cast<std::size_t>(group_count_), 1.0);
  group_flows_.assign(static_cast<std::size_t>(group_count_), 0.0);
  for (int as = 0; as < graph_.size(); ++as) {
    const auto& st = as_state_[static_cast<std::size_t>(as)];
    if (st.agg_group >= 0)
      group_flows_[static_cast<std::size_t>(st.agg_group)] += st.flows;
  }
}

void TickSim::emit_sources(int tick) {
  for (std::size_t fi = 0; fi < flows_.size(); ++fi) {
    Flow& f = flows_[fi];
    int emit = 0;
    if (f.is_bot) {
      f.emit_credit += cfg_.bot_rate;
      emit = static_cast<int>(f.emit_credit);
      f.emit_credit -= emit;
    } else {
      if (tick >= f.next_epoch) {
        // Epoch boundary: window update for the finished epoch (halve on any
        // drop, else +1 — the coarse AIMD model of Section VII-B).
        if (f.dropped_this_epoch) {
          f.window = std::max(1.0, f.window / 2.0);
        } else {
          f.window = std::min<double>(cfg_.legit_max_window, f.window + 1.0);
        }
        f.dropped_this_epoch = false;
        f.next_epoch = tick + f.rtt_ticks;
      }
      // Self-clocked emission: the window is spread across the RTT rather
      // than released as one burst (TCP ack pacing).
      f.emit_credit += f.window / f.rtt_ticks;
      emit = static_cast<int>(f.emit_credit);
      f.emit_credit -= emit;
    }
    if (emit > 0) {
      auto& arr = arrivals_[static_cast<std::size_t>(f.origin_as)];
      for (int k = 0; k < emit; ++k) arr.push_back(static_cast<std::int32_t>(fi));
      f.arrived_interval += static_cast<std::uint64_t>(emit);
    }
  }
}

namespace {

// Fisher-Yates shuffle of a flow-id vector.
void shuffle(std::vector<std::int32_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_int(i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace

void TickSim::forward_internal(int tick) {
  (void)tick;
  const auto cap = static_cast<std::size_t>(cfg_.internal_capacity);
  const std::size_t buffer = cap * static_cast<std::size_t>(cfg_.queue_buffer_factor);

  for (int as = graph_.size() - 1; as >= 1; --as) {
    auto& carry = queue_[static_cast<std::size_t>(as)];
    auto& arr = arrivals_[static_cast<std::size_t>(as)];
    if (carry.empty() && arr.empty()) continue;
    const int parent = graph_.node(as).parent;
    auto& out = arrivals_next_[static_cast<std::size_t>(parent)];

    // A router that forwards everything makes no choice, so it draws no
    // randomness and keeps its order: every consumer whose outcome depends
    // on order (a parent that overflows, the target link) shuffles its own
    // arrivals, and a uniform shuffle's output does not depend on its input.
    if (carry.size() + arr.size() <= cap) {
      out.insert(out.end(), carry.begin(), carry.end());
      out.insert(out.end(), arr.begin(), arr.end());
      carry.clear();
      arr.clear();
      continue;
    }
    // New arrivals are served in random order behind the carryover — drops
    // hit a uniformly random subset of the tick's packets (Section VII-B).
    shuffle(arr, rng_);
    const std::size_t from_carry = std::min(cap, carry.size());
    out.insert(out.end(), carry.begin(),
               carry.begin() + static_cast<long>(from_carry));
    carry.erase(carry.begin(), carry.begin() + static_cast<long>(from_carry));
    const std::size_t from_arr = std::min(cap - from_carry, arr.size());
    out.insert(out.end(), arr.begin(), arr.begin() + static_cast<long>(from_arr));
    // Remaining arrivals buffer up to the carryover limit; the rest drop.
    const std::size_t held = from_arr + std::min(arr.size() - from_arr,
                                                 buffer - carry.size());
    carry.insert(carry.end(), arr.begin() + static_cast<long>(from_arr),
                 arr.begin() + static_cast<long>(held));
    for (std::size_t i = held; i < arr.size(); ++i) {
      flows_[static_cast<std::size_t>(arr[i])].dropped_this_epoch = true;
      ++results_.dropped_internal;
    }
    arr.clear();
  }
}

void TickSim::target_link_service(int tick, bool measuring) {
  (void)tick;
  auto& carry = queue_[static_cast<std::size_t>(graph_.root())];
  auto& arr = arrivals_[static_cast<std::size_t>(graph_.root())];
  const auto cap = static_cast<std::size_t>(cfg_.bottleneck_capacity);
  const std::size_t buffer = cap * static_cast<std::size_t>(cfg_.queue_buffer_factor);

  // This tick's pool: the carryover, then the arrivals in random order.
  shuffle(arr, rng_);
  pool_.swap(carry);
  pool_.insert(pool_.end(), arr.begin(), arr.end());
  carry.clear();
  arr.clear();
  leftover_.clear();

  // A delivered packet is only counted, by class, in the measured interval.
  std::size_t sent = 0;
  auto deliver = [&](std::int32_t p) {
    ++sent;
    if (!measuring) return;
    const Flow& f = flows_[static_cast<std::size_t>(p)];
    if (f.is_bot) {
      ++results_.delivered_attack;
    } else if (f.in_attack_as) {
      ++results_.delivered_legit_attack;
    } else {
      ++results_.delivered_legit_legit;
    }
  };
  // Delivers while the link has capacity left, else queues on `rest`.
  auto serve = [&](std::int32_t p, std::vector<std::int32_t>& rest) {
    if (sent < cap) deliver(p);
    else rest.push_back(p);
  };

  switch (cfg_.policy) {
    case TickPolicy::kNoDefense: {
      for (std::int32_t p : pool_) serve(p, leftover_);
      break;
    }
    case TickPolicy::kFairPriority: {
      // Legit packets are high priority; bot packets high only within their
      // per-flow fair share (probabilistic in-profile marking).
      const double fair =
          static_cast<double>(cfg_.bottleneck_capacity) /
          std::max<std::size_t>(1, flows_.size());
      high_.clear();
      low_.clear();
      for (std::int32_t p : pool_) {
        const Flow& f = flows_[static_cast<std::size_t>(p)];
        const bool in_profile =
            !f.is_bot ||
            rng_.chance(std::min(1.0, fair / std::max(1e-9, f.rate_est)));
        (in_profile ? high_ : low_).push_back(p);
      }
      for (std::int32_t p : high_) serve(p, leftover_);
      for (std::int32_t p : low_) serve(p, leftover_);
      break;
    }
    case TickPolicy::kFloc: {
      // Per-path-identifier fair allocation with preferential service.
      double total_weight = 0.0;
      for (double w : group_weight_) total_weight += w;
      if (total_weight <= 0.0) total_weight = 1.0;

      // DRR-style quota accounting: each path identifier's per-tick share
      // accrues as credit (capped at several ticks' worth — the analogue of
      // the enlarged bucket N', Eq. IV.3) so the AIMD sawtooth of legitimate
      // flows averages out to the full share instead of being peak-clipped.
      // The per-flow fair rate within each group is computed once per tick.
      if (group_credit_.size() != group_weight_.size())
        group_credit_.assign(group_weight_.size(), 0.0);
      group_fair_.resize(group_weight_.size());
      for (std::size_t g = 0; g < group_weight_.size(); ++g) {
        const double share =
            cfg_.bottleneck_capacity * group_weight_[g] / total_weight;
        group_credit_[g] = std::min(6.0 * share, group_credit_[g] + share);
        group_fair_[g] = share / std::max(1.0, group_flows_[g]);
      }
      for (std::int32_t p : pool_) {
        Flow& f = flows_[static_cast<std::size_t>(p)];
        const auto g = static_cast<std::size_t>(
            as_state_[static_cast<std::size_t>(f.origin_as)].agg_group);
        const double fair = group_fair_[g];
        // Preferential service probability: min{1, fair/rate} — the tick-
        // level analogue of min{1, MTD/(n*T)} (Eq. IV.5). Only flows beyond
        // the attack classification threshold are filtered; responsive flows
        // probing modestly above fair are left alone (Section IV-B.2).
        const bool preferred =
            f.rate_est <= cfg_.attack_over_rate * fair ||
            rng_.chance(std::min(1.0, fair / std::max(1e-9, f.rate_est)));
        if (preferred && group_credit_[g] >= 1.0 && sent < cap) {
          group_credit_[g] -= 1.0;
          deliver(p);
        } else if (preferred) {
          spare_candidates_.push_back(p);  // conformant, quota exhausted
        } else {
          leftover_.push_back(p);
        }
      }
      // Work conservation: spare capacity first serves conformant flows
      // whose path quota ran out (the preferential principle extends to
      // spare bandwidth), then anything else, randomly. Conformant packets
      // that still don't fit go to the FRONT of the carryover buffer — they
      // are queued, not dropped, mirroring how the router buffer absorbs
      // legitimate bursts in the packet-level design.
      shuffle(spare_candidates_, rng_);
      preferred_wait_.clear();
      for (std::int32_t p : spare_candidates_) serve(p, preferred_wait_);
      spare_candidates_.clear();
      // What the spare capacity does not take queues behind the conformant
      // waiters, so the carryover fill below keeps them preferentially.
      shuffle(leftover_, rng_);
      for (std::int32_t p : leftover_) serve(p, preferred_wait_);
      leftover_.swap(preferred_wait_);
      break;
    }
  }

  // Carryover up to the buffer; the rest drop (and signal the TCP model).
  const std::size_t kept = std::min(buffer, leftover_.size());
  carry.insert(carry.end(), leftover_.begin(),
               leftover_.begin() + static_cast<long>(kept));
  for (std::size_t i = kept; i < leftover_.size(); ++i) {
    flows_[static_cast<std::size_t>(leftover_[i])].dropped_this_epoch = true;
    ++results_.dropped_target;
  }
}

void TickSim::floc_control(int tick) {
  (void)tick;
  // Rate estimates.
  for (Flow& f : flows_) {
    const double inst =
        static_cast<double>(f.arrived_interval) / cfg_.control_every;
    f.rate_est = 0.7 * f.rate_est + 0.3 * inst;
    f.arrived_interval = 0;
  }
  if (cfg_.policy != TickPolicy::kFloc) return;

  // Conformance per origin AS.
  double total_weight = 0.0;
  for (double w : group_weight_) total_weight += w;
  if (total_weight <= 0.0) total_weight = 1.0;

  std::vector<int> attack_count(static_cast<std::size_t>(graph_.size()), 0);
  std::vector<int> flow_count(static_cast<std::size_t>(graph_.size()), 0);
  for (const Flow& f : flows_) {
    const auto as = static_cast<std::size_t>(f.origin_as);
    const auto g = static_cast<std::size_t>(as_state_[as].agg_group);
    const double fair =
        cfg_.bottleneck_capacity * group_weight_[g] /
        (total_weight * std::max(1.0, group_flows_[g]));
    ++flow_count[as];
    if (f.rate_est > cfg_.attack_over_rate * std::max(fair, 1e-6))
      ++attack_count[as];
  }
  for (int as = 0; as < graph_.size(); ++as) {
    auto& st = as_state_[static_cast<std::size_t>(as)];
    if (st.flows == 0) continue;
    const double legit_frac =
        1.0 - static_cast<double>(attack_count[static_cast<std::size_t>(as)]) /
                  std::max(1, flow_count[static_cast<std::size_t>(as)]);
    st.conformance = cfg_.conformance_beta * legit_frac +
                     (1.0 - cfg_.conformance_beta) * st.conformance;
  }

  // Aggregation (A-N variants): reuse the core planner over AS paths. An AS
  // whose offered load exceeds its equal-split path allocation is "suspect"
  // (the covert pattern: individually conformant flows, collectively
  // over-subscribed) and is never merged into a legitimate aggregate.
  std::vector<double> as_lambda(static_cast<std::size_t>(graph_.size()), 0.0);
  for (const Flow& f : flows_) {
    as_lambda[static_cast<std::size_t>(f.origin_as)] += f.rate_est;
  }
  int active_paths = 0;
  for (int as = 0; as < graph_.size(); ++as) {
    if (as_state_[static_cast<std::size_t>(as)].flows > 0) ++active_paths;
  }
  const double path_alloc =
      static_cast<double>(cfg_.bottleneck_capacity) / std::max(1, active_paths);

  std::vector<PathSnapshot> snaps;
  std::vector<int> snap_as;
  for (int as = 0; as < graph_.size(); ++as) {
    const auto& st = as_state_[static_cast<std::size_t>(as)];
    if (st.flows == 0) continue;
    const bool suspect =
        as_lambda[static_cast<std::size_t>(as)] > 1.5 * path_alloc;
    snaps.push_back(PathSnapshot{graph_.path_of(as), st.conformance,
                                 static_cast<double>(st.flows), suspect});
    snap_as.push_back(as);
  }

  AggregationConfig acfg;
  acfg.s_max = cfg_.guaranteed_paths > 0 ? cfg_.guaranteed_paths : (1 << 30);
  acfg.e_th = cfg_.e_th;
  // A tight budget needs legitimate-path aggregation too (e.g. A-100 with
  // 200+ legitimate origin ASes, Section VII-C).
  acfg.aggregate_legit = cfg_.guaranteed_paths > 0;
  acfg.aggregate_attack = cfg_.guaranteed_paths > 0;
  Aggregator aggregator(acfg);
  const AggregationPlan plan = aggregator.plan(snaps);

  std::unordered_map<std::uint64_t, int> group_of_agg;
  group_count_ = 0;
  group_weight_.clear();
  group_flows_.clear();
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const auto& entry = plan.mapping.at(snaps[i].path.key());
    const std::uint64_t akey = entry.group_key();
    auto [it, inserted] = group_of_agg.try_emplace(akey, group_count_);
    if (inserted) {
      ++group_count_;
      group_weight_.push_back(entry.share_weight);
      group_flows_.push_back(0.0);
    }
    as_state_[static_cast<std::size_t>(snap_as[i])].agg_group = it->second;
    group_flows_[static_cast<std::size_t>(it->second)] += snaps[i].flows;
  }
  results_.aggregate_count = group_count_;
}

TickResults TickSim::run() {
  std::uint64_t measured_ticks = 0;
  for (int tick = 0; tick < cfg_.ticks; ++tick) {
    const bool measuring = tick >= cfg_.warmup_ticks;
    if (measuring) ++measured_ticks;
    emit_sources(tick);
    forward_internal(tick);
    target_link_service(tick, measuring);
    for (std::size_t as = 0; as < arrivals_.size(); ++as) {
      std::swap(arrivals_[as], arrivals_next_[as]);
      arrivals_next_[as].clear();
    }
    if ((tick + 1) % cfg_.control_every == 0) floc_control(tick);
  }

  const double denom = static_cast<double>(measured_ticks) *
                       static_cast<double>(cfg_.bottleneck_capacity);
  results_.legit_legit_frac = results_.delivered_legit_legit / denom;
  results_.legit_attack_frac = results_.delivered_legit_attack / denom;
  results_.attack_frac = results_.delivered_attack / denom;
  results_.utilization = results_.legit_legit_frac +
                         results_.legit_attack_frac + results_.attack_frac;
  double wsum = 0.0;
  std::size_t wn = 0;
  for (const Flow& f : flows_) {
    if (!f.is_bot) {
      wsum += f.window;
      ++wn;
    }
  }
  results_.mean_legit_window = wn ? wsum / static_cast<double>(wn) : 0.0;
  if (cfg_.policy != TickPolicy::kFloc) results_.aggregate_count = group_count_;
  return results_;
}

}  // namespace floc
