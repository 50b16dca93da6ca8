// Deficit Round Robin fair queueing (Shreedhar & Varghese, 1995).
//
// A per-flow fair-scheduling baseline: each active flow gets its own FIFO
// and a deficit counter replenished by one quantum per round; flows are
// served round-robin while their deficit covers the head packet. DRR gives
// near-perfect per-flow fairness — and therefore illustrates the paper's
// Section II argument: per-flow fairness alone cannot counter covert
// attacks, because an attacker with many flows owns many queues.
#pragma once

#include <list>
#include <unordered_map>

#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"

namespace floc {

struct DrrConfig {
  std::size_t buffer_packets = 1000;  // shared across all flow queues
  int quantum_bytes = 1500;           // per-round service per flow
  std::size_t max_flow_queue = 100;   // per-flow cap (bounds one flow's share
                                      // of the buffer)
};

class DrrQueue : public QueueDisc {
 public:
  explicit DrrQueue(DrrConfig cfg) : cfg_(cfg) {}

  bool enqueue(Packet&& p, TimeSec now) override;
  std::optional<Packet> dequeue(TimeSec now) override;
  bool empty() const override { return total_packets_ == 0; }
  std::size_t packet_count() const override { return total_packets_; }
  std::size_t byte_count() const override;

  std::size_t active_flows() const { return flows_.size(); }

  // Generic queue gauges plus "<prefix>.active_flows".
  void register_metrics(telemetry::MetricRegistry& reg,
                        const std::string& prefix) const override;

  // Minimal incident dump: base counters plus per-flow backlog and deficit
  // (sorted by flow id).
  void snapshot_state(json::JsonWriter& w, TimeSec now) const override;

 private:
  struct FlowQueue {
    PacketFifo q;
    int deficit = 0;
    bool in_round = false;
  };

  DrrConfig cfg_;
  std::unordered_map<FlowId, FlowQueue> flows_;
  std::list<FlowId> round_;  // active list (round-robin order)
  std::size_t total_packets_ = 0;
};

}  // namespace floc
