// FlowMonitor: labels every flow (legitimate/attack, path, path class) and
// records delivered goodput so experiments can report per-flow, per-path and
// per-class bandwidth over arbitrary measurement windows.
//
// Measurement model: the monitor keeps a cumulative delivered-byte counter
// per flow plus named snapshots of all counters; bandwidth over [A, B] is the
// counter difference between snapshots divided by the elapsed time. Time
// series (Fig. 6) come from a TimeSeriesSampler polling
// class_cumulative_bytes().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/packet.h"
#include "util/stats.h"
#include "util/units.h"

namespace floc {

enum class FlowClass : std::uint8_t { kLegitimate, kAttack };

struct FlowLabel {
  FlowClass cls = FlowClass::kLegitimate;
  bool on_attack_path = false;  // originates in a bot-contaminated domain
  std::uint64_t path_key = 0;   // PathId::key() of the flow's domain path
  std::string path_name;        // human-readable path tag
};

class FlowMonitor {
 public:
  void register_flow(FlowId flow, FlowLabel label);
  bool is_registered(FlowId flow) const { return index_.count(flow) != 0; }
  const FlowLabel& label(FlowId flow) const;

  // Delivery callback (invoked by sinks).
  void on_deliver(FlowId flow, double bytes);

  // Capture the cumulative counters under `name` at time `now`.
  void snapshot(const std::string& name, TimeSec now);

  // --- Queries over a window delimited by two snapshots -------------------
  double flow_bps(FlowId flow, const std::string& snap_a,
                  const std::string& snap_b) const;

  using FlowPredicate = std::function<bool(const FlowLabel&)>;

  // CDF of per-flow bandwidth over the window for flows matching `pred`.
  Cdf bandwidth_cdf(const FlowPredicate& pred, const std::string& snap_a,
                    const std::string& snap_b) const;

  // Aggregate bandwidth (bits/s) of all flows matching `pred`.
  double class_bps(const FlowPredicate& pred, const std::string& snap_a,
                   const std::string& snap_b) const;

  // Aggregate bandwidth keyed by path over the window.
  std::map<std::string, double> path_bps(const std::string& snap_a,
                                         const std::string& snap_b) const;

  std::size_t flow_count() const { return labels_.size(); }

  // Cumulative delivered bytes over all flows matching `pred` (no snapshots
  // needed) — the natural feed for a telemetry gauge, which a sampler turns
  // into per-interval goodput via a rate column.
  double class_cumulative_bytes(const FlowPredicate& pred) const;

  // Common predicates.
  static bool is_legit_on_legit_path(const FlowLabel& l) {
    return l.cls == FlowClass::kLegitimate && !l.on_attack_path;
  }
  static bool is_legit_on_attack_path(const FlowLabel& l) {
    return l.cls == FlowClass::kLegitimate && l.on_attack_path;
  }
  static bool is_attack(const FlowLabel& l) { return l.cls == FlowClass::kAttack; }

 private:
  struct Snapshot {
    TimeSec time = 0.0;
    std::vector<double> cumulative;  // by dense flow index
  };
  const Snapshot& snap(const std::string& name) const;

  std::unordered_map<FlowId, std::size_t> index_;  // flow -> dense index
  std::vector<FlowLabel> labels_;
  std::vector<double> cumulative_bytes_;
  std::map<std::string, Snapshot> snapshots_;
};

}  // namespace floc
