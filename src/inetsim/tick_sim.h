// Internet-scale discrete-time simulator (Section VII-B).
//
// Faithful to the paper's design: time advances in ticks (≈5 ms); every
// packet moves exactly one router (AS) hop per tick; a router processes all
// packets that arrived within a tick at once and, when drops are necessary,
// removes uniformly random packets from that tick's pool. The bottleneck
// (target) link serves `bottleneck_capacity` packets per tick — 16,000 in
// the paper, corresponding to a 40 Gbps OC-768 at 5 ms ticks.
//
// Sources: legitimate flows follow a coarse TCP window model (w packets per
// RTT epoch; halve on any drop in the epoch, else +1), attack bots send at a
// constant per-tick rate. Defense policies at the target link:
//   * kNoDefense  — FIFO, uniform random overflow drops (paper "ND");
//   * kFairPriority — per-flow fairness via two priorities: legitimate
//     packets high, attack packets high only within their per-flow fair
//     share (paper "FF");
//   * kFloc — per-origin-AS (path) fair allocation with conformance-driven
//     aggregation (reusing core::Aggregator) and MTD-style preferential
//     service probability min{1, fair/rate} for over-rate flows (paper
//     "NA" with guaranteed_paths=0, "A-200"/"A-100" otherwise).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/as_graph.h"
#include "topology/bot_distribution.h"
#include "util/rng.h"

namespace floc {

enum class TickPolicy { kNoDefense, kFairPriority, kFloc };

const char* to_string(TickPolicy p);

struct TickConfig {
  TickPolicy policy = TickPolicy::kFloc;
  int guaranteed_paths = 0;        // 0 = no aggregation; else |S|_max
  int bottleneck_capacity = 16000; // packets per tick at the target link
  // Internal (transit) links are provisioned above the target link so the
  // attack's chosen bottleneck is the target; links inside heavily
  // contaminated subtrees can still clog and shed bot traffic early.
  int internal_capacity = 64000;   // packets per tick on every other link
  int queue_buffer_factor = 2;     // carryover buffer = factor * capacity
  int ticks = 2000;
  int warmup_ticks = 400;
  double bot_rate = 0.5;           // packets per tick per bot
  int legit_max_window = 64;
  // Router-level hops per AS-level hop: the paper's Skitter paths are
  // router paths (~15-30 hops, 75-150 ms at 5 ms ticks), while our topology
  // is AS-level; this factor restores realistic RTTs for the TCP model.
  int router_hops_per_as = 2;
  int control_every = 50;          // ticks between FLoc control updates
  double conformance_beta = 0.2;
  double attack_over_rate = 2.0;   // flow classified attack beyond this
  double e_th = 0.5;
  std::uint64_t seed = 3;
};

struct TickResults {
  // Fractions of the bottleneck link capacity over the measured interval.
  double legit_legit_frac = 0.0;   // legitimate flows, legitimate-AS origin
  double legit_attack_frac = 0.0;  // legitimate flows inside attack ASes
  double attack_frac = 0.0;        // bot traffic
  double utilization = 0.0;        // everything delivered / capacity

  std::uint64_t delivered_legit_legit = 0;
  std::uint64_t delivered_legit_attack = 0;
  std::uint64_t delivered_attack = 0;
  std::uint64_t dropped_internal = 0;  // drops before the target link
  std::uint64_t dropped_target = 0;
  int aggregate_count = 0;             // path identifiers after aggregation
  double mean_legit_window = 0.0;
};

class TickSim {
 public:
  TickSim(const AsGraph& graph, const SourcePlacement& placement,
          TickConfig cfg);

  TickResults run();

  // Introspection (tests / diagnostics).
  struct AsView {
    double conformance;
    int flows;
    int group;
    double group_weight;
  };
  AsView as_view(int as) const {
    const auto& st = as_state_[static_cast<std::size_t>(as)];
    return AsView{st.conformance, st.flows, st.agg_group,
                  st.agg_group >= 0
                      ? group_weight_[static_cast<std::size_t>(st.agg_group)]
                      : 0.0};
  }
  int group_count() const { return group_count_; }

 private:
  // Fields ordered so the record packs into 48 bytes.
  struct Flow {
    std::int32_t origin_as;
    // Legit TCP model:
    int rtt_ticks = 8;
    int next_epoch = 0;
    bool dropped_this_epoch = false;
    bool is_bot;
    bool in_attack_as;
    double window = 1.0;
    // Bot emission accumulator:
    double emit_credit = 0.0;
    // Measured send rate (EWMA pkts/tick) for FLoc classification:
    double rate_est = 0.0;
    std::uint64_t arrived_interval = 0;
  };
  static_assert(sizeof(Flow) == 48);

  void emit_sources(int tick);
  void forward_internal(int tick);
  void target_link_service(int tick, bool measuring);
  void floc_control(int tick);

  const AsGraph& graph_;
  TickConfig cfg_;
  Rng rng_;

  std::vector<Flow> flows_;
  // Per-AS egress state: carryover queue + this-tick arrivals (flow ids).
  std::vector<std::vector<std::int32_t>> queue_;
  std::vector<std::vector<std::int32_t>> arrivals_;
  std::vector<std::vector<std::int32_t>> arrivals_next_;

  // FLoc per-origin-AS state.
  struct AsState {
    double conformance = 1.0;
    int flows = 0;
    std::int32_t agg_group = -1;  // index into group weights
  };
  std::vector<AsState> as_state_;
  std::vector<double> group_weight_;  // bandwidth shares per aggregate group
  std::vector<double> group_flows_;   // accounting flows per group
  std::vector<double> group_credit_;  // DRR carryover credit (packets)
  int group_count_ = 0;

  // Target-link scratch, reused across ticks so a tick allocates nothing
  // once the buffers reach their high-water marks.
  std::vector<std::int32_t> pool_;        // carryover, then shuffled arrivals
  std::vector<std::int32_t> leftover_;    // candidates for the carryover
  std::vector<std::int32_t> high_, low_;  // FF priority classes
  std::vector<double> group_fair_;        // per-flow fair rate per group
  std::vector<std::int32_t> spare_candidates_;  // conformant, quota spent
  std::vector<std::int32_t> preferred_wait_;    // next carryover, in order

  TickResults results_;
};

}  // namespace floc
