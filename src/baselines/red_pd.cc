#include "baselines/red_pd.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "telemetry/metrics.h"
#include "util/json.h"

namespace floc {

RedPdQueue::RedPdQueue(RedPdConfig cfg)
    : cfg_(cfg), red_(cfg.red), rng_(cfg.rng_seed) {}

double RedPdQueue::monitored_prob(FlowId f) const {
  const auto it = monitored_.find(f);
  return it == monitored_.end() ? 0.0 : it->second.prob;
}

void RedPdQueue::rotate_epoch(TimeSec now) {
  const TimeSec epoch_len = cfg_.epoch_factor * cfg_.target_rtt;
  if (epoch_end_ == 0.0) epoch_end_ = now + epoch_len;
  while (now >= epoch_end_) {
    epoch_end_ += epoch_len;
    const auto mask = (std::uint32_t{1} << cfg_.history_epochs) - 1;
    // Shift histories; newly identified flows become monitored.
    for (auto it = drop_history_.begin(); it != drop_history_.end();) {
      std::uint32_t h = (it->second << 1) & mask;
      const auto de = drops_this_epoch_.find(it->first);
      if (de != drops_this_epoch_.end() && de->second > 0) h |= 1u;
      it->second = h;
      if (h == 0) {
        it = drop_history_.erase(it);
        continue;
      }
      if (std::popcount(h) >= cfg_.epochs_with_drops_to_monitor &&
          monitored_.count(it->first) == 0) {
        monitored_[it->first] = MonState{cfg_.initial_drop_prob};
      }
      ++it;
    }
    // Adapt monitored probabilities: a reference TCP flow takes at most one
    // drop per congestion epoch, so only multiple drops signal persistence;
    // a clean epoch decays the probability.
    for (auto it = monitored_.begin(); it != monitored_.end();) {
      MonState& m = it->second;
      if (m.drops_this_epoch >= 2) {
        m.prob = std::min(cfg_.max_drop_prob, m.prob * cfg_.increase_factor);
      } else if (m.drops_this_epoch == 0) {
        m.prob *= cfg_.decrease_factor;
      }
      m.drops_this_epoch = 0;
      if (m.prob < cfg_.unmonitor_below) {
        it = monitored_.erase(it);
      } else {
        ++it;
      }
    }
    drops_this_epoch_.clear();
  }
}

bool RedPdQueue::enqueue(PacketRef ref, TimeSec now) {
  const Packet& p = *ref;
  rotate_epoch(now);

  const auto record_drop = [this](FlowId flow) {
    drops_this_epoch_[flow]++;
    drop_history_.try_emplace(flow, 0);
    auto it = monitored_.find(flow);
    if (it != monitored_.end()) it->second.drops_this_epoch++;
  };

  // Pre-filter: monitored flows are preferentially dropped ahead of RED.
  if (p.type == PacketType::kData) {
    auto it = monitored_.find(p.flow);
    if (it != monitored_.end() && rng_.chance(it->second.prob)) {
      record_drop(p.flow);
      note_drop(p, DropReason::kPreferential, now);
      return false;
    }
  }

  if (q_.size() >= cfg_.red.buffer_packets) {
    if (p.type == PacketType::kData) record_drop(p.flow);
    note_drop(p, DropReason::kQueueFull, now);
    return false;
  }
  if (p.type == PacketType::kData && red_.should_drop(q_.size(), now)) {
    record_drop(p.flow);
    note_drop(p, DropReason::kRandomEarly, now);
    return false;
  }

  q_.push_back(std::move(ref));
  note_admit();
  return true;
}

PacketRef RedPdQueue::dequeue(TimeSec now) {
  if (q_.empty()) return {};
  PacketRef p = q_.pop_front();
  if (q_.empty()) red_.on_queue_empty(now);
  return p;
}

void RedPdQueue::register_metrics(telemetry::MetricRegistry& reg,
                                  const std::string& prefix) const {
  register_queue_gauges(reg, prefix);
  reg.gauge_fn(prefix + ".avg", [this] { return red_.avg(); });
  reg.gauge_fn(prefix + ".monitored_flows",
               [this] { return static_cast<double>(monitored_count()); });
  register_drop_gauges(reg, prefix);
}

void RedPdQueue::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  (void)now;
  w.begin_object();
  w.field("scheme", "red-pd");
  w.field("packets", static_cast<std::uint64_t>(packet_count()));
  w.field("bytes", static_cast<std::uint64_t>(byte_count()));
  w.field("drops", drops());
  w.field("admissions", admissions());
  w.field("avg_queue", red_.avg());
  std::vector<FlowId> flows;
  flows.reserve(monitored_.size());
  for (const auto& [f, ms] : monitored_) flows.push_back(f);
  std::sort(flows.begin(), flows.end());
  w.key("monitored").begin_array();
  for (const FlowId f : flows) {
    const MonState& ms = monitored_.at(f);
    w.begin_object();
    w.field("flow", f);
    w.field("prob", ms.prob);
    w.field("drops_this_epoch", static_cast<std::int64_t>(ms.drops_this_epoch));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace floc
