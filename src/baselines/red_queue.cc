#include "baselines/red_queue.h"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.h"
#include "util/json.h"

namespace floc {

bool RedCore::should_drop(std::size_t q_len, TimeSec now) {
  // Idle decay: while the queue was empty the average decays as if small
  // packets had been serviced the whole time.
  if (q_len == 0 && idle_since_ >= 0.0) {
    const double pkts_serviceable = (now - idle_since_) * cfg_.link_bandwidth /
                                    (kBitsPerByte * cfg_.mean_pkt_bytes);
    avg_ *= std::pow(1.0 - cfg_.weight, pkts_serviceable);
    idle_since_ = -1.0;
  }
  avg_ = (1.0 - cfg_.weight) * avg_ + cfg_.weight * static_cast<double>(q_len);

  if (avg_ < cfg_.min_th) {
    count_ = -1;
    return false;
  }
  double p_b;
  if (avg_ < cfg_.max_th) {
    p_b = cfg_.max_p * (avg_ - cfg_.min_th) / (cfg_.max_th - cfg_.min_th);
  } else if (cfg_.gentle && avg_ < 2.0 * cfg_.max_th) {
    p_b = cfg_.max_p + (1.0 - cfg_.max_p) * (avg_ - cfg_.max_th) / cfg_.max_th;
  } else {
    count_ = 0;
    return true;
  }
  ++count_;
  const double denom = 1.0 - count_ * p_b;
  const double p_a = denom > 0.0 ? p_b / denom : 1.0;
  if (rng_.chance(p_a)) {
    count_ = 0;
    return true;
  }
  return false;
}

bool RedQueue::enqueue(Packet&& p, TimeSec now) {
  if (q_.size() >= cfg_.buffer_packets) {
    note_drop(p, DropReason::kQueueFull, now);
    return false;
  }
  if (core_.should_drop(q_.size(), now)) {
    note_drop(p, DropReason::kRandomEarly, now);
    return false;
  }
  q_.push_back(std::move(p));
  note_admit();
  return true;
}

std::optional<Packet> RedQueue::dequeue(TimeSec now) {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  if (q_.empty()) core_.on_queue_empty(now);
  return p;
}

void RedQueue::register_metrics(telemetry::MetricRegistry& reg,
                                const std::string& prefix) const {
  QueueDisc::register_metrics(reg, prefix);
  reg.gauge_fn(prefix + ".avg", [this] { return avg_queue(); });
}

void RedQueue::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  (void)now;
  w.begin_object();
  w.field("scheme", "red");
  w.field("packets", static_cast<std::uint64_t>(packet_count()));
  w.field("bytes", static_cast<std::uint64_t>(byte_count()));
  w.field("drops", drops());
  w.field("admissions", admissions());
  w.field("avg_queue", avg_queue());
  w.field("min_th", cfg_.min_th);
  w.field("max_th", cfg_.max_th);
  w.field("max_p", cfg_.max_p);
  w.field("gentle", cfg_.gentle);
  w.end_object();
}

}  // namespace floc
