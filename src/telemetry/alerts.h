// Sliding-window storm alerting over the MetricRegistry.
//
// The AlertEngine turns the registry's cumulative counters into operator
// signals the way production monitors do: each rule watches one metric and
// compares a short-window average rate against a long-window one (the
// netdata "packets storm" shape — 10s average vs 1-minute average with a
// minimum-rate floor so idle links never page), or a raw value against a
// threshold. Rules have hysteresis: a distinct clear condition, so a rate
// hovering at the trigger does not flap.
//
// Everything is driven by the simulation clock through sample(now) — the
// engine holds no threads and no wall-clock state, so alert firings are as
// deterministic and --jobs-invariant as the simulation itself. Firing
// history exports as JSON (".alerts.json" scorecard artifacts), and the
// whole registry renders in the Prometheus text exposition format for
// scrape-style consumption.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "util/units.h"

namespace floc::telemetry {

class FlightRecorder;

enum class AlertKind : std::uint8_t {
  kRateRatio,   // short-window avg rate vs long-window avg rate
  kThreshold,   // instantaneous value vs fixed threshold
};

const char* to_string(AlertKind k);

struct AlertRule {
  std::string name;    // e.g. "floc_state_evict_storm"
  std::string metric;  // registry metric to watch (cumulative for kRateRatio)
  AlertKind kind = AlertKind::kRateRatio;

  // kRateRatio: fire when avg rate over `short_window` is both >= `min_rate`
  // (the idle floor: a ratio over a near-zero baseline is noise) and >=
  // `ratio` times the avg rate over `long_window`; clear when it falls to
  // `clear_ratio` times the long average (or under the floor).
  TimeSec short_window = 10.0;
  TimeSec long_window = 60.0;
  double ratio = 3.0;
  double clear_ratio = 1.5;
  double min_rate = 10.0;

  // kThreshold: fire at value >= `threshold`, clear at value <=
  // `clear_threshold` (set clear below fire for hysteresis).
  double threshold = 0.0;
  double clear_threshold = 0.0;
};

// One edge of a rule's firing state, stamped with the observed measurement
// (the short-window rate or the value) that caused it.
struct AlertEvent {
  TimeSec time = 0.0;
  std::string rule;
  bool firing = false;  // true = fired, false = cleared
  double observed = 0.0;
};

class AlertEngine {
 public:
  // The registry must outlive the engine; metrics may register after the
  // engine (missing names read as 0 until they appear).
  explicit AlertEngine(const MetricRegistry* registry) : reg_(registry) {}

  void add_rule(AlertRule rule);

  // Attach an incident flight recorder: every rule FIRE edge (not clears)
  // triggers a capture, stamped with the rule name and the observed
  // measurement. nullptr detaches. The recorder must outlive the engine.
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // Read every watched metric, advance the sliding windows, evaluate the
  // rules. Call on the simulation clock (e.g. alongside the sampler).
  void sample(TimeSec now);

  bool firing(const std::string& rule) const;
  // Fire edges ever observed for `rule` (0 for unknown names).
  std::uint64_t fired(const std::string& rule) const;
  std::uint64_t fired_total() const;
  const std::vector<AlertEvent>& history() const { return history_; }
  std::size_t rule_count() const { return rules_.size(); }

  // {"rules": [{name, metric, kind, firing, fired}...],
  //  "events": [{time, rule, firing, observed}...]}
  std::string to_json() const;
  // Write to_json() to `path`; false + "<path>: <strerror>" in *err on
  // failure.
  bool save(const std::string& path, std::string* err = nullptr) const;

  // Prometheus text exposition of every metric in `reg` as a gauge (dots
  // and other illegal characters become '_'). Stand-alone so benches can
  // scrape-export a registry without constructing an engine.
  static std::string render_prometheus(const MetricRegistry& reg);
  // render_prometheus(registry) plus one floc_alert_firing{alert="..."}
  // series per rule.
  std::string render_prometheus_with_alerts() const;

 private:
  struct RuleState {
    AlertRule rule;
    // (time, cumulative value) samples covering at least long_window.
    std::deque<std::pair<TimeSec, double>> window;
    bool firing = false;
    std::uint64_t fire_edges = 0;
  };

  // Average rate of the rule's metric over the trailing `span` seconds,
  // from the two window samples bracketing it. Returns 0 until two samples
  // exist.
  static double window_rate(const RuleState& rs, TimeSec span);
  void evaluate(RuleState& rs, TimeSec now);

  const MetricRegistry* reg_;
  std::vector<RuleState> rules_;
  std::vector<AlertEvent> history_;
  std::uint64_t fired_total_ = 0;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace floc::telemetry
