#include "baselines/drr_queue.h"

#include <algorithm>
#include <vector>

#include "telemetry/metrics.h"
#include "util/json.h"

namespace floc {

bool DrrQueue::enqueue(Packet&& p, TimeSec now) {
  if (total_packets_ >= cfg_.buffer_packets) {
    note_drop(p, DropReason::kQueueFull, now);
    return false;
  }
  FlowQueue& fq = flows_[p.flow];
  if (fq.q.size() >= cfg_.max_flow_queue) {
    note_drop(p, DropReason::kQueueFull, now);
    return false;
  }
  if (!fq.in_round) {
    fq.in_round = true;
    fq.deficit = 0;
    round_.push_back(p.flow);
  }
  ++total_packets_;
  fq.q.push_back(std::move(p));
  note_admit();
  return true;
}

std::optional<Packet> DrrQueue::dequeue(TimeSec) {
  // Round-robin over active flows; a flow whose deficit cannot cover its
  // head packet is topped up by one quantum and moved to the back. The guard
  // bounds the scan: a packet needs at most ceil(size/quantum) top-ups.
  std::size_t guard =
      (round_.size() + 1) *
      (static_cast<std::size_t>(1500 / std::max(1, cfg_.quantum_bytes)) + 2);
  while (!round_.empty() && guard-- > 0) {
    const FlowId f = round_.front();
    FlowQueue& fq = flows_[f];
    if (fq.q.empty()) {
      fq.in_round = false;
      round_.pop_front();
      flows_.erase(f);
      continue;
    }
    if (fq.deficit < fq.q.front().size_bytes) {
      fq.deficit += cfg_.quantum_bytes;
      round_.splice(round_.end(), round_, round_.begin());
      continue;
    }
    Packet p = std::move(fq.q.front());
    fq.q.pop_front();
    fq.deficit -= p.size_bytes;
    --total_packets_;
    if (fq.q.empty()) {
      fq.in_round = false;
      round_.pop_front();
      flows_.erase(f);
    }
    return p;
  }
  return std::nullopt;
}

std::size_t DrrQueue::byte_count() const {
  std::size_t bytes = 0;
  for (const auto& [f, fq] : flows_) bytes += fq.q.bytes();
  return bytes;
}

void DrrQueue::register_metrics(telemetry::MetricRegistry& reg,
                                const std::string& prefix) const {
  QueueDisc::register_metrics(reg, prefix);
  reg.gauge_fn(prefix + ".active_flows",
               [this] { return static_cast<double>(active_flows()); });
}

void DrrQueue::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  (void)now;
  w.begin_object();
  w.field("scheme", "drr");
  w.field("packets", static_cast<std::uint64_t>(packet_count()));
  w.field("bytes", static_cast<std::uint64_t>(byte_count()));
  w.field("drops", drops());
  w.field("admissions", admissions());
  w.field("quantum_bytes", static_cast<std::int64_t>(cfg_.quantum_bytes));
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  for (const auto& [f, fq] : flows_) ids.push_back(f);
  std::sort(ids.begin(), ids.end());
  w.key("flows").begin_array();
  for (const FlowId f : ids) {
    const FlowQueue& fq = flows_.at(f);
    w.begin_object();
    w.field("flow", f);
    w.field("backlog_packets", static_cast<std::uint64_t>(fq.q.size()));
    w.field("deficit", static_cast<std::int64_t>(fq.deficit));
    w.field("in_round", fq.in_round);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace floc
