// Per-flow fairness by two priority classes (Section VII-C baseline "FF").
//
// The Internet-scale comparison marks legitimate packets high-priority and
// attack packets high-priority only up to their fair share; high-priority
// packets are serviced first and low-priority ones use leftover capacity.
// This queue is the event-driven-simulator counterpart: a strict two-level
// priority queue where a per-flow fair-rate meter demotes out-of-profile
// packets of flows marked "attack capable" to low priority.
//
// It is deliberately an *oracle* baseline: it knows which flows are
// legitimate (via the classifier callback) — the strongest per-flow-fairness
// scheme possible — and still fails against covert attacks, which is the
// paper's point.
#pragma once

#include <functional>
#include <unordered_map>

#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"
#include "util/units.h"

namespace floc {

struct PriorityFairConfig {
  std::size_t buffer_packets = 1000;
  BitsPerSec link_bandwidth = mbps(500);
  TimeSec rate_interval = 0.5;  // fair-share accounting window
};

class PriorityFairQueue : public QueueDisc {
 public:
  using LegitClassifier = std::function<bool(FlowId)>;

  PriorityFairQueue(PriorityFairConfig cfg, LegitClassifier is_legit);

  bool enqueue(PacketRef p, TimeSec now) override;
  PacketRef dequeue(TimeSec now) override;
  bool empty() const override { return high_.empty() && low_.empty(); }
  std::size_t packet_count() const override { return high_.size() + low_.size(); }
  std::size_t byte_count() const override {
    return high_.bytes() + low_.bytes();
  }

  // Minimal incident dump: base counters plus the two priority backlogs and
  // the fair-share denominator.
  void snapshot_state(json::JsonWriter& w, TimeSec now) const override;

 private:
  void roll_interval(TimeSec now);

  PriorityFairConfig cfg_;
  LegitClassifier is_legit_;
  PacketFifo high_;
  PacketFifo low_;

  TimeSec interval_end_ = 0.0;
  std::unordered_map<FlowId, double> bytes_this_interval_;
  std::size_t flows_seen_ = 1;
};

}  // namespace floc
