// RED-PD — RED with Preferential Dropping (Mahajan, Floyd & Wetherall, 2001).
//
// Identifies high-bandwidth flows from the RED drop history: a flow dropped
// in several of the recent "identification epochs" (of length K * target
// RTT) is put on the monitored list and pre-dropped with an adaptive
// probability before entering the RED queue. Monitored probabilities rise
// while the flow keeps taking drops and decay once it behaves, so responsive
// TCP flows shed monitoring quickly while unresponsive attack flows converge
// to high pre-drop rates.
//
// Faithful-shape simplification (documented in DESIGN.md): the original's
// per-epoch quantile-based identification is replaced by a drop-count
// threshold over the epoch history, and the probability update uses
// multiplicative increase / decrease.
#pragma once

#include <unordered_map>

#include "baselines/red_queue.h"
#include "netsim/packet_fifo.h"

namespace floc {

struct RedPdConfig {
  RedConfig red;
  TimeSec target_rtt = 0.04;  // R
  double epoch_factor = 2.0;  // K: epoch length = K*R
  int history_epochs = 5;     // sliding identification history
  int epochs_with_drops_to_monitor = 3;
  double initial_drop_prob = 0.05;
  double max_drop_prob = 0.98;
  double increase_factor = 1.5;   // when a monitored flow keeps taking drops
  double decrease_factor = 0.5;   // when it behaves for a whole epoch
  double unmonitor_below = 0.01;
  std::uint64_t rng_seed = 11;
};

class RedPdQueue : public QueueDisc {
 public:
  explicit RedPdQueue(RedPdConfig cfg);

  bool enqueue(Packet&& p, TimeSec now) override;
  std::optional<Packet> dequeue(TimeSec now) override;
  bool empty() const override { return q_.empty(); }
  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return q_.bytes(); }

  bool is_monitored(FlowId f) const { return monitored_.count(f) != 0; }
  double monitored_prob(FlowId f) const;
  std::size_t monitored_count() const { return monitored_.size(); }

  // Generic queue gauges plus "<prefix>.avg" and "<prefix>.monitored_flows".
  void register_metrics(telemetry::MetricRegistry& reg,
                        const std::string& prefix) const override;

  // Minimal incident dump: base counters plus the monitored-flow list with
  // per-flow pre-drop probabilities (sorted by flow id).
  void snapshot_state(json::JsonWriter& w, TimeSec now) const override;

 private:
  void rotate_epoch(TimeSec now);

  RedPdConfig cfg_;
  RedCore red_;
  Rng rng_;
  PacketFifo q_;

  TimeSec epoch_end_ = 0.0;
  // Drop history: for each flow, in how many of the recent epochs it was
  // dropped (bitmask over history_epochs).
  std::unordered_map<FlowId, std::uint32_t> drop_history_;
  std::unordered_map<FlowId, int> drops_this_epoch_;
  struct MonState {
    double prob;
    int drops_this_epoch = 0;
  };
  std::unordered_map<FlowId, MonState> monitored_;
};

}  // namespace floc
