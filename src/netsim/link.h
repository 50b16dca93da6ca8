// Unidirectional link: serialization at a fixed rate, propagation delay, and
// an attached queue discipline at the egress port.
//
// Event cost: one delivery event per packet, plus a tx-done event only when
// a packet is waiting as serialization ends. An idle hop's tx-done would
// find the queue empty, so it is never scheduled; its (time, seq) slot is
// reserved instead, so busy/free decisions and every other event's order
// are exactly what they would be with the event present. Packets in flight
// ride a per-link FIFO (the wire) rather than event captures: a link starts
// a packet only after the previous one has serialized, so they land in
// transmit order (see docs/INTERNALS.md, "Event engine").
//
// Packets move as slab slots (PacketRef, netsim/packet_fifo.h), never as
// copies: send() hands the slot to the queue discipline, transmission moves
// the slot the queue released onto the wire, and delivery hands that same
// slot to the next node. A packet refused by the queue or offered to a
// downed link, and one drained from a downed link's queue, returns its slot
// to the slab at once.
//
// Links carry fault state for the fault-injection subsystem (src/faultsim):
// a downed link drops every offered packet; on recovery transmission resumes
// from the (optionally preserved) egress queue. A tamper hook lets fault
// plans corrupt packets on the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"
#include "netsim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/tracing.h"
#include "util/units.h"

namespace floc {

class Node;

class Link {
 public:
  // What happens to packets already buffered when the link goes down.
  enum class DownQueuePolicy {
    kPreserve,  // line card loses power, buffer memory survives
    kDrain,     // buffer is lost with the link
  };

  Link(Simulator* sim, Node* to, BitsPerSec bandwidth, TimeSec delay,
       std::unique_ptr<QueueDisc> queue);

  // Offer a packet to the egress queue and start transmitting if idle.
  // Offered packets are dropped outright while the link is down.
  void send(PacketRef p);

  // Bring the link down or back up. A packet mid-serialization when the link
  // fails is already on the wire and still delivers; nothing new starts
  // until recovery, which immediately resumes transmission from the queue.
  void set_up(bool up, DownQueuePolicy policy = DownQueuePolicy::kPreserve);
  bool up() const { return up_; }
  // Packets dropped because they were offered to (or drained from) a downed
  // link.
  std::uint64_t down_drops() const { return down_drops_; }

  // Wire-level tamper hook (fault injection): invoked on each packet, in its
  // slot, as it begins serialization, after queueing/admission decisions
  // were made.
  void set_tamper(std::function<void(Packet&)> tamper) {
    tamper_ = std::move(tamper);
  }

  QueueDisc& queue() { return *queue_; }
  const QueueDisc& queue() const { return *queue_; }
  // Replace the queue discipline (must be done before traffic starts).
  void set_queue(std::unique_ptr<QueueDisc> q);

  BitsPerSec bandwidth() const { return bandwidth_; }
  TimeSec delay() const { return delay_; }
  Node* to() const { return to_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }

  // Mean utilization of the link over [t0, t1] given recorded bytes; caller
  // supplies the measurement window.
  double utilization(TimeSec t0, TimeSec t1) const;

  // Publish link counters as polled gauges under `prefix` (e.g.
  // "link.target"): bytes_sent, packets_sent, down_drops, up, and the egress
  // queue's depth in packets/bytes plus its drop/admission totals. Polled at
  // sample time only — the transmit path is untouched.
  void register_metrics(telemetry::MetricRegistry& reg,
                        const std::string& prefix) const;

  // Attach causal span tracing: each offered packet gets a kQueue residency
  // span (parented under the packet's current span, closed at dequeue or by
  // the queue's drop hook), and each transmission records a kLinkTx span
  // covering serialization + propagation. `pid`/`tid` label the exported
  // lanes (by convention: pid = receiving node id, tid = link ordinal). The
  // tracer also propagates to the queue discipline so drops terminate the
  // residency span with their DropReason. Null detaches; the detached send
  // path does zero tracing work.
  void set_tracer(telemetry::Tracer* tracer, std::int32_t pid = 0,
                  std::uint64_t tid = 0);

  // Attach wall-clock profiling of the queue discipline's enqueue/dequeue
  // calls (sections from telemetry::Profiler::section); null detaches.
  void set_profiler(telemetry::Profiler::Section* enqueue_section,
                    telemetry::Profiler::Section* dequeue_section) {
    prof_enqueue_ = enqueue_section;
    prof_dequeue_ = dequeue_section;
  }

 private:
  // Serialization of the last started packet is still in progress: the run
  // has not reached the slot its tx-done event holds.
  bool transmitting() const {
    return !sim_->reached(busy_until_, tx_done_seq_);
  }
  void schedule_tx_done();
  void try_transmit();
  void deliver();
  void trace_enqueue(Packet& p);
  void trace_transmit(Packet& p, TimeSec tx);

  Simulator* sim_;
  Node* to_;
  BitsPerSec bandwidth_;
  TimeSec delay_;
  std::unique_ptr<QueueDisc> queue_;
  std::function<void(Packet&)> tamper_;
  telemetry::Tracer* tracer_ = nullptr;
  std::int32_t trace_pid_ = 0;
  std::uint64_t trace_tid_ = 0;
  telemetry::Profiler::Section* prof_enqueue_ = nullptr;
  telemetry::Profiler::Section* prof_dequeue_ = nullptr;
  // End of the current serialization and the seq reserved for its tx-done
  // event; the initial slot lies before the start of time, so a fresh link
  // is free.
  TimeSec busy_until_ = -1.0;
  std::uint64_t tx_done_seq_ = 0;
  bool tx_done_scheduled_ = false;
  // Slots of packets serialized but not yet delivered, in transmit order.
  PacketFifo wire_;
  bool up_ = true;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t down_drops_ = 0;
};

}  // namespace floc
