#include "telemetry/metrics.h"

namespace floc::telemetry {

void MetricRegistry::gauge_fn(const std::string& name,
                              std::function<double()> fn) {
  const auto [it, inserted] = index_.emplace(name, metrics_.size());
  if (inserted) {
    metrics_.push_back(Metric{name, std::move(fn)});
  } else {
    metrics_[it->second].fn = std::move(fn);
  }
}

const MetricRegistry::Metric* MetricRegistry::find(
    const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

double MetricRegistry::value(const std::string& name) const {
  const Metric* m = find(name);
  return m != nullptr ? m->read() : 0.0;
}

}  // namespace floc::telemetry
