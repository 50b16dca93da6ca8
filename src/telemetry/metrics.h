// The MetricRegistry: the naming layer every simulator component publishes
// its numbers through.
//
// Design constraints (see docs/INTERNALS.md, "Observability"):
//  * every metric is a polled gauge (gauge_fn): the component exposes an
//    accessor and the TimeSeriesSampler, FlightRecorder or Prometheus export
//    evaluates it at sample time, so instrumenting an existing counter never
//    duplicates its state and costs *nothing* on the hot path;
//  * the figures report bandwidth shares, means and CDFs, never latency
//    quantiles, so the registry carries no histogram kind.
//
// Metric names are hierarchical dotted strings, lowercase, with the component
// instance first: "floc.drops.token", "link.target.bytes_sent",
// "sim.events_processed". Registering the same name twice replaces the
// callback in place.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace floc::telemetry {

// Owns all metrics of one run, in registration order.
class MetricRegistry {
 public:
  struct Metric {
    std::string name;
    std::function<double()> fn;

    // Current value; an empty callback reads as 0.
    double read() const { return fn ? fn() : 0.0; }
  };

  // Polled gauge: `fn` is evaluated at sample/export time only. Re-registering
  // an existing name replaces the callback (components outlive samplers, but
  // a rebuilt component must be able to re-point its gauge).
  void gauge_fn(const std::string& name, std::function<double()> fn);

  // Registration order; names never move, new metrics append at the tail.
  const std::vector<Metric>& metrics() const { return metrics_; }
  // Valid until the next registration.
  const Metric* find(const std::string& name) const;
  std::size_t size() const { return metrics_.size(); }

  // Current value of `name`; missing names (and empty callbacks) return 0.
  double value(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace floc::telemetry
