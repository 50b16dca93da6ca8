// RED — Random Early Detection (Floyd & Jacobson, 1993).
//
// Baseline active-queue-management scheme: drop probability grows with the
// exponentially averaged queue length between min_th and max_th. Used (a) as
// the fair no-attack reference of Fig. 7(c) and (b) as the substrate of
// RED-PD.
#pragma once

#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"
#include "util/rng.h"

namespace floc {

struct RedConfig {
  std::size_t buffer_packets = 1000;
  double min_th = 200.0;   // packets
  double max_th = 600.0;   // packets
  double weight = 0.002;   // EWMA weight w_q
  double max_p = 0.1;      // drop probability at max_th
  bool gentle = true;      // linear ramp to 1.0 between max_th and 2*max_th
  int mean_pkt_bytes = 1500;
  BitsPerSec link_bandwidth = mbps(500);  // for idle-time avg decay
  std::uint64_t rng_seed = 7;
};

// The RED computation, reusable by RED-PD without inheriting queue storage.
class RedCore {
 public:
  explicit RedCore(const RedConfig& cfg) : cfg_(cfg), rng_(cfg.rng_seed) {}

  // Decide whether the arriving packet should be early-dropped given the
  // instantaneous queue length (packets).
  bool should_drop(std::size_t q_len, TimeSec now);

  // Track transitions to the empty queue for idle decay.
  void on_queue_empty(TimeSec now) { idle_since_ = now; }

  double avg() const { return avg_; }

 private:
  RedConfig cfg_;
  Rng rng_;
  double avg_ = 0.0;
  int count_ = -1;       // packets since last early drop
  TimeSec idle_since_ = -1.0;
};

class RedQueue : public QueueDisc {
 public:
  explicit RedQueue(RedConfig cfg) : cfg_(cfg), core_(cfg) {}

  bool enqueue(PacketRef p, TimeSec now) override;
  PacketRef dequeue(TimeSec now) override;
  bool empty() const override { return q_.empty(); }
  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return q_.bytes(); }

  double avg_queue() const { return core_.avg(); }

  // Generic queue gauges, "<prefix>.avg" (the RED EWMA queue estimate), then
  // the per-reason drop gauges.
  void register_metrics(telemetry::MetricRegistry& reg,
                        const std::string& prefix) const override;

  // Minimal incident dump: base counters plus the EWMA estimate and
  // thresholds that drive the drop probability.
  void snapshot_state(json::JsonWriter& w, TimeSec now) const override;

 private:
  RedConfig cfg_;
  RedCore core_;
  PacketFifo q_;
};

}  // namespace floc
