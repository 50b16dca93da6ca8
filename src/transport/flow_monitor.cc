#include "transport/flow_monitor.h"

#include <cassert>
#include <stdexcept>

namespace floc {

void FlowMonitor::register_flow(FlowId flow, FlowLabel label) {
  assert(index_.count(flow) == 0 && "flow registered twice");
  index_[flow] = labels_.size();
  labels_.push_back(std::move(label));
  cumulative_bytes_.push_back(0.0);
}

const FlowLabel& FlowMonitor::label(FlowId flow) const {
  return labels_[index_.at(flow)];
}

void FlowMonitor::on_deliver(FlowId flow, double bytes) {
  const auto it = index_.find(flow);
  if (it == index_.end()) return;  // unlabelled flow: ignore
  cumulative_bytes_[it->second] += bytes;
}

void FlowMonitor::snapshot(const std::string& name, TimeSec now) {
  snapshots_[name] = Snapshot{now, cumulative_bytes_};
}

const FlowMonitor::Snapshot& FlowMonitor::snap(const std::string& name) const {
  const auto it = snapshots_.find(name);
  if (it == snapshots_.end())
    throw std::out_of_range("unknown snapshot: " + name);
  return it->second;
}

double FlowMonitor::flow_bps(FlowId flow, const std::string& snap_a,
                             const std::string& snap_b) const {
  const Snapshot& a = snap(snap_a);
  const Snapshot& b = snap(snap_b);
  const double dt = b.time - a.time;
  if (dt <= 0.0) return 0.0;
  const std::size_t i = index_.at(flow);
  const double da = i < a.cumulative.size() ? a.cumulative[i] : 0.0;
  const double db = i < b.cumulative.size() ? b.cumulative[i] : 0.0;
  return (db - da) * 8.0 / dt;
}

Cdf FlowMonitor::bandwidth_cdf(const FlowPredicate& pred,
                               const std::string& snap_a,
                               const std::string& snap_b) const {
  const Snapshot& a = snap(snap_a);
  const Snapshot& b = snap(snap_b);
  const double dt = b.time - a.time;
  Cdf cdf;
  if (dt <= 0.0) return cdf;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (!pred(labels_[i])) continue;
    const double da = i < a.cumulative.size() ? a.cumulative[i] : 0.0;
    const double db = i < b.cumulative.size() ? b.cumulative[i] : 0.0;
    cdf.add((db - da) * 8.0 / dt);
  }
  return cdf;
}

double FlowMonitor::class_bps(const FlowPredicate& pred,
                              const std::string& snap_a,
                              const std::string& snap_b) const {
  const Snapshot& a = snap(snap_a);
  const Snapshot& b = snap(snap_b);
  const double dt = b.time - a.time;
  if (dt <= 0.0) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (!pred(labels_[i])) continue;
    const double da = i < a.cumulative.size() ? a.cumulative[i] : 0.0;
    const double db = i < b.cumulative.size() ? b.cumulative[i] : 0.0;
    total += db - da;
  }
  return total * 8.0 / dt;
}

std::map<std::string, double> FlowMonitor::path_bps(
    const std::string& snap_a, const std::string& snap_b) const {
  const Snapshot& a = snap(snap_a);
  const Snapshot& b = snap(snap_b);
  const double dt = b.time - a.time;
  std::map<std::string, double> out;
  if (dt <= 0.0) return out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const double da = i < a.cumulative.size() ? a.cumulative[i] : 0.0;
    const double db = i < b.cumulative.size() ? b.cumulative[i] : 0.0;
    out[labels_[i].path_name] += (db - da) * 8.0 / dt;
  }
  return out;
}

double FlowMonitor::class_cumulative_bytes(const FlowPredicate& pred) const {
  double bytes = 0.0;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (pred(labels_[i])) bytes += cumulative_bytes_[i];
  }
  return bytes;
}

}  // namespace floc
