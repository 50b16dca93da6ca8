#include "baselines/priority_fair.h"

#include <algorithm>
#include <vector>

#include "util/json.h"

namespace floc {

PriorityFairQueue::PriorityFairQueue(PriorityFairConfig cfg,
                                     LegitClassifier is_legit)
    : cfg_(cfg), is_legit_(std::move(is_legit)) {}

void PriorityFairQueue::roll_interval(TimeSec now) {
  if (interval_end_ == 0.0) {
    interval_end_ = now + cfg_.rate_interval;
    return;
  }
  if (now < interval_end_) return;
  interval_end_ = now + cfg_.rate_interval;
  flows_seen_ = std::max<std::size_t>(1, bytes_this_interval_.size());
  bytes_this_interval_.clear();
}

bool PriorityFairQueue::enqueue(PacketRef ref, TimeSec now) {
  roll_interval(now);
  const Packet& p = *ref;

  bool high_priority = true;
  if (p.type == PacketType::kData) {
    double& used = bytes_this_interval_[p.flow];
    used += p.size_bytes;
    if (!is_legit_(p.flow)) {
      // Attack flows keep high priority only within their fair share.
      const double fair_bytes = cfg_.link_bandwidth * cfg_.rate_interval /
                                (kBitsPerByte * static_cast<double>(flows_seen_));
      if (used > fair_bytes) high_priority = false;
    }
  }

  if (high_.size() + low_.size() >= cfg_.buffer_packets) {
    // Make room for a high-priority packet by shedding low-priority load.
    if (high_priority && !low_.empty()) {
      note_drop(low_.back(), DropReason::kQueueFull, now);
      low_.pop_back();
    } else {
      note_drop(p, DropReason::kQueueFull, now);
      return false;
    }
  }
  (high_priority ? high_ : low_).push_back(std::move(ref));
  note_admit();
  return true;
}

PacketRef PriorityFairQueue::dequeue(TimeSec) {
  PacketFifo* src = !high_.empty() ? &high_ : (!low_.empty() ? &low_ : nullptr);
  if (src == nullptr) return {};
  return src->pop_front();
}

void PriorityFairQueue::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  (void)now;
  w.begin_object();
  w.field("scheme", "priority-fair");
  w.field("packets", static_cast<std::uint64_t>(packet_count()));
  w.field("bytes", static_cast<std::uint64_t>(byte_count()));
  w.field("drops", drops());
  w.field("admissions", admissions());
  w.field("high_backlog", static_cast<std::uint64_t>(high_.size()));
  w.field("low_backlog", static_cast<std::uint64_t>(low_.size()));
  w.field("flows_seen", static_cast<std::uint64_t>(flows_seen_));
  w.end_object();
}

}  // namespace floc
