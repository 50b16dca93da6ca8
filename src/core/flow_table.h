// Per-origin-path flow accounting: active-flow tracking with expiry, RTT
// sampling (capability issue -> first use, Section V-A), per-interval arrival
// and drop counters, and per-flow MTD trackers.
//
// "Accounting flows" are the unit FLoc allocates fair bandwidth to. Normally
// one per transport flow; with the covert-attack defense enabled (n_max > 0)
// all of a source's flows hashing to the same capability slot share one
// accounting flow (Section IV-B.3), so a high-fanout source looks like a
// single high-rate flow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "core/mtd_tracker.h"
#include "core/state_budget.h"
#include "netsim/packet.h"
#include "util/stats.h"
#include "util/units.h"

namespace floc {

struct FlowRecord {
  TimeSec first_seen = 0.0;
  TimeSec last_seen = 0.0;
  TimeSec syn_time = -1.0;   // when this flow's SYN passed the router
  bool rtt_sampled = false;  // true once the SYN->first-data sample was taken
  MtdTracker mtd;
  double bytes_arrived = 0.0;  // current control interval
  std::uint64_t drops = 0;     // current control interval
  std::uint64_t total_drops = 0;
  double rate_bps = 0.0;       // smoothed arrival-rate estimate
  std::uint64_t touch_stamp = 0;  // monotone per-path LRU stamp
};

// State of one *origin* (full, unaggregated) path identifier.
class OriginPathState {
 public:
  explicit OriginPathState(PathId path, double conformance_beta)
      : path_(std::move(path)), conformance_(conformance_beta, 1.0),
        rtt_(0.2) {
    conformance_.set(1.0);  // paths start fully conformant (Eq. IV.6)
  }

  const PathId& path() const { return path_; }

  // Find-or-create the accounting-flow record for `acct_key`. With a
  // non-null enabled `budget`, creating a record in a full table first
  // evicts down to the budget's shrink target (kLru: coldest records;
  // kLowestOffenseFirst: fewest lifetime drops first, so the MTD history of
  // offending flows survives identity churn; kProbabilisticDecay: seeded
  // uniform victims). `evicted` (optional) accumulates the eviction count;
  // `scratch` (optional) is the caller's reusable ranking buffer.
  FlowRecord& touch_flow(std::uint64_t acct_key, TimeSec now,
                         const StateBudgetConfig* budget = nullptr,
                         std::uint64_t decay_salt = 0,
                         std::uint64_t* evicted = nullptr,
                         EvictScratch* scratch = nullptr);
  FlowRecord* find_flow(std::uint64_t acct_key);

  // Remove flows idle longer than `timeout`; returns surviving count.
  std::size_t expire_flows(TimeSec now, TimeSec timeout);

  std::size_t flow_count() const { return flows_.size(); }
  std::unordered_map<std::uint64_t, FlowRecord>& flows() { return flows_; }
  const std::unordered_map<std::uint64_t, FlowRecord>& flows() const {
    return flows_;
  }

  void add_rtt_sample(TimeSec s) { rtt_.add(s); }
  bool has_rtt() const { return rtt_.seeded(); }
  TimeSec mean_rtt(TimeSec fallback) const {
    return rtt_.seeded() ? rtt_.value() : fallback;
  }

  // Conformance EWMA E_Ri (Eq. IV.6): fed 1 - n_attack/n each interval.
  void update_conformance(double legit_fraction) {
    conformance_.add(legit_fraction);
  }
  double conformance() const { return conformance_.value(); }

  // Interval counters (reset by the control loop).
  double bytes_arrived = 0.0;
  std::uint64_t pkts_arrived = 0;
  std::uint64_t drops = 0;
  // Packets that found no token available (whether or not the neutral
  // congested-mode policy ultimately dropped them): the MTD signal for
  // attack-path identification (Section IV-B.1).
  std::uint64_t token_misses = 0;

  // Overload-mode SYN gate: a per-path token bucket the owner queue consults
  // ONLY while overloaded. Handshakes are normally admitted unconditionally,
  // but an identity-churn attacker escalates into a pure SYN storm (each
  // rotation is a fresh handshake); under overload its coarsened identities
  // funnel through a handful of paths, so a per-path budget confines the
  // storm while legitimate leaf paths — with their own, barely-touched
  // buckets — keep opening connections.
  bool syn_gate_admit(TimeSec now, double rate, double burst) {
    if (syn_stamp_ >= 0.0) {
      syn_tokens_ = std::min(burst, syn_tokens_ + (now - syn_stamp_) * rate);
    } else {
      syn_tokens_ = burst;  // first consult: a full burst allowance
    }
    syn_stamp_ = now;
    if (syn_tokens_ < 1.0) return false;
    syn_tokens_ -= 1.0;
    return true;
  }

  // Key of the aggregate this path currently maps to.
  std::uint64_t aggregate_key = 0;

  // Monotone touch stamp maintained by the owner (FlocQueue) for origin-table
  // LRU ranking; 0 until first stamped.
  std::uint64_t touch_stamp = 0;

 private:
  PathId path_;
  std::unordered_map<std::uint64_t, FlowRecord> flows_;
  Ewma conformance_;
  Ewma rtt_;
  std::uint64_t touch_counter_ = 0;  // per-path LRU clock for flow records
  double syn_tokens_ = 0.0;          // overload-mode SYN gate bucket
  TimeSec syn_stamp_ = -1.0;         // <0 = gate never consulted
};

}  // namespace floc
