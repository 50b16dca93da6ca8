#include "netsim/link.h"

#include <cassert>
#include <utility>

#include "netsim/node.h"

namespace floc {

Link::Link(Simulator* sim, Node* to, BitsPerSec bandwidth, TimeSec delay,
           std::unique_ptr<QueueDisc> queue)
    : sim_(sim), to_(to), bandwidth_(bandwidth), delay_(delay),
      queue_(std::move(queue)) {
  assert(queue_ && "link requires a queue discipline");
}

void Link::set_queue(std::unique_ptr<QueueDisc> q) {
  assert(q);
  queue_ = std::move(q);
  queue_->set_tracer(tracer_);
}

void Link::set_tracer(telemetry::Tracer* tracer, std::int32_t pid,
                      std::uint64_t tid) {
  tracer_ = tracer;
  trace_pid_ = pid;
  trace_tid_ = tid;
  queue_->set_tracer(tracer);
}

void Link::send(PacketRef p) {
  if (!up_) {
    ++down_drops_;
    return;
  }
  if (tracer_ != nullptr) trace_enqueue(*p);
  bool admitted;
  {
    telemetry::ScopedTimer timer(prof_enqueue_);
    admitted = queue_->enqueue(std::move(p), sim_->now());
  }
  if (!admitted) return;
  if (transmitting()) {
    schedule_tx_done();
  } else {
    try_transmit();
  }
}

void Link::schedule_tx_done() {
  if (tx_done_scheduled_) return;
  tx_done_scheduled_ = true;
  auto tx_done = [this] {
    tx_done_scheduled_ = false;
    try_transmit();
  };
  static_assert(Simulator::Callback::fits_inline<decltype(tx_done)>());
  sim_->schedule_reserved(busy_until_, tx_done_seq_, tx_done);
}

void Link::trace_enqueue(Packet& p) {
  // Untraced traffic (e.g. raw attack sources) still gets a residency span
  // rooted at this hop, keyed by its flow id.
  const std::uint64_t trace = p.span.trace != 0 ? p.span.trace : p.flow;
  const telemetry::SpanId qs =
      tracer_->begin(sim_->now(), trace, p.span.span,
                     telemetry::SpanKind::kQueue, trace_pid_, trace_tid_,
                     p.seq, p.size_bytes);
  p.span = SpanContext{trace, qs, p.span.span};
}

void Link::set_up(bool up, DownQueuePolicy policy) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    if (policy == DownQueuePolicy::kDrain) {
      const TimeSec now = sim_->now();
      while (PacketRef p = queue_->dequeue(now)) {
        ++down_drops_;
        // Not a queue verdict, so no DropReason: end the residency span with
        // the link-down status instead of leaving it open.
        if (tracer_ != nullptr && p->span.active()) {
          tracer_->end_dropped(p->span.span, now, kSpanStatusLinkDown,
                               "link-down");
        }
      }
    }
    return;
  }
  try_transmit();
}

void Link::try_transmit() {
  if (!up_ || transmitting()) return;
  PacketRef pkt;
  {
    telemetry::ScopedTimer timer(prof_dequeue_);
    pkt = queue_->dequeue(sim_->now());
  }
  if (!pkt) return;
  if (tamper_) tamper_(*pkt);
  const TimeSec tx = transmission_time(pkt->size_bytes, bandwidth_);
  bytes_sent_ += static_cast<std::uint64_t>(pkt->size_bytes);
  ++packets_sent_;
  if (tracer_ != nullptr && pkt->span.active()) trace_transmit(*pkt, tx);
  // The transmitter frees after serialization; the packet lands after the
  // additional propagation delay. The tx-done slot is reserved before the
  // delivery is scheduled, so no seq depends on whether the tx-done event
  // is ever scheduled; it is scheduled only once a packet is waiting.
  busy_until_ = sim_->now() + tx;
  tx_done_seq_ = sim_->reserve_seq();
  wire_.push_back(std::move(pkt));
  auto delivery = [this] { deliver(); };
  static_assert(Simulator::Callback::fits_inline<decltype(delivery)>());
  sim_->schedule_in(tx + delay_, delivery);
  if (!queue_->empty()) schedule_tx_done();
}

void Link::deliver() { to_->receive(wire_.pop_front()); }

void Link::trace_transmit(Packet& p, TimeSec tx) {
  const TimeSec now = sim_->now();
  // Close the residency span (a no-op if the queue's drop hook already
  // terminated it) and record the pre-known serialization+propagation
  // interval, then hand the packet onward parented under the wire span.
  tracer_->end(p.span.span, now);
  const telemetry::SpanId wire = tracer_->complete(
      now, now + tx + delay_, p.span.trace, p.span.span,
      telemetry::SpanKind::kLinkTx, trace_pid_, trace_tid_, p.seq,
      p.size_bytes);
  p.span.parent = p.span.span;
  p.span.span = wire;
}

void Link::register_metrics(telemetry::MetricRegistry& reg,
                            const std::string& prefix) const {
  reg.gauge_fn(prefix + ".bytes_sent",
               [this] { return static_cast<double>(bytes_sent()); });
  reg.gauge_fn(prefix + ".packets_sent",
               [this] { return static_cast<double>(packets_sent()); });
  reg.gauge_fn(prefix + ".down_drops",
               [this] { return static_cast<double>(down_drops()); });
  reg.gauge_fn(prefix + ".up", [this] { return up() ? 1.0 : 0.0; });
  queue().register_metrics(reg, prefix + ".queue");
}

double Link::utilization(TimeSec t0, TimeSec t1) const {
  if (t1 <= t0) return 0.0;
  return static_cast<double>(bytes_sent_) * kBitsPerByte /
         ((t1 - t0) * bandwidth_);
}

}  // namespace floc
