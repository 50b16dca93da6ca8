#include "transport/tcp_source.h"

#include <algorithm>
#include <cassert>

#include "netsim/link.h"
#include "util/units.h"

namespace floc {

TcpSource::TcpSource(Simulator* sim, Host* host, TcpSourceConfig cfg)
    : sim_(sim), host_(host), cfg_(cfg), ssthresh_(cfg.initial_ssthresh) {
  host_->register_agent(cfg_.flow, this);
}

void TcpSource::start_at(TimeSec t) {
  sim_->schedule_at(t, [this] {
    if (state_ == State::kIdle) send_syn();
  });
}

void TcpSource::set_tracer(telemetry::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) {
    syn_span_ = 0;
    send_spans_.clear();
  }
}

void TcpSource::trace_syn(Packet& p) {
  if (syn_span_ == 0) {
    syn_span_ = tracer_->begin(sim_->now(), cfg_.flow, /*parent=*/0,
                               telemetry::SpanKind::kTcpHandshake,
                               host_->id(), cfg_.flow, /*seq=*/0,
                               p.size_bytes);
  } else {
    tracer_->annotate(syn_span_, "retx", "1");  // SYN timeout: same span
  }
  p.span = SpanContext{cfg_.flow, syn_span_, 0};
}

void TcpSource::trace_send(Packet& p, std::uint64_t seq, bool is_retransmit) {
  auto it = send_spans_.find(seq);
  if (it == send_spans_.end()) {
    const telemetry::SpanId id = tracer_->begin(
        sim_->now(), cfg_.flow, /*parent=*/0, telemetry::SpanKind::kTcpSend,
        host_->id(), cfg_.flow, seq, p.size_bytes);
    it = send_spans_.emplace(seq, id).first;
  } else if (is_retransmit) {
    tracer_->annotate(it->second, "retx", "1");
  }
  p.span = SpanContext{cfg_.flow, it->second, 0};
}

void TcpSource::trace_acked(std::uint64_t from_seq,
                            std::uint64_t acked_through) {
  for (std::uint64_t seq = from_seq; seq < acked_through; ++seq) {
    const auto it = send_spans_.find(seq);
    if (it == send_spans_.end()) continue;
    tracer_->end(it->second, sim_->now());
    send_spans_.erase(it);
  }
}

void TcpSource::send_syn() {
  state_ = State::kSynSent;
  Packet p;
  p.flow = cfg_.flow;
  p.src = host_->addr();
  p.dst = cfg_.dst;
  p.path = cfg_.path;
  p.type = PacketType::kSyn;
  p.size_bytes = kAckPacketBytes;
  p.sent_time = sim_->now();
  if (tracer_ != nullptr) trace_syn(p);
  Link* out = host_->network()->next_hop(host_->id(), cfg_.dst);
  assert(out && "source host must have a route to the destination");
  out->send(std::move(p));
  last_send_or_ack_ = sim_->now();
  arm_timer();
}

void TcpSource::on_packet(Packet&& p) {
  switch (p.type) {
    case PacketType::kSynAck:
      if (state_ == State::kSynSent) {
        state_ = State::kEstablished;
        cap0_ = p.cap0;
        cap1_ = p.cap1;
        if (tracer_ != nullptr && syn_span_ != 0) {
          tracer_->end(syn_span_, sim_->now());
        }
        // The handshake gives the first RTT sample.
        on_new_ack(0, sim_->now() - p.sent_time);
        send_available();
      }
      break;
    case PacketType::kAck:
      if (state_ == State::kEstablished) {
        // Adopt the capability echoed by the receiver: after a router key
        // rotation the re-issued (re-stamped) words come back in ACKs, and
        // switching to them keeps the flow verifiable past the grace window.
        if (p.cap0 != 0 && (p.cap0 != cap0_ || p.cap1 != cap1_)) {
          cap0_ = p.cap0;
          cap1_ = p.cap1;
        }
        handle_ack(p);
      }
      break;
    default:
      break;
  }
}

void TcpSource::send_available() {
  if (state_ != State::kEstablished) return;
  const auto window = static_cast<std::uint64_t>(cwnd_);
  while (next_seq_ - snd_una_ < window &&
         (cfg_.total_packets == 0 || next_seq_ < cfg_.total_packets)) {
    transmit(next_seq_, /*is_retransmit=*/false);
    ++next_seq_;
  }
}

void TcpSource::transmit(std::uint64_t seq, bool is_retransmit) {
  Packet p;
  p.flow = cfg_.flow;
  p.src = host_->addr();
  p.dst = cfg_.dst;
  p.path = cfg_.path;
  p.type = PacketType::kData;
  p.size_bytes = cfg_.packet_bytes;
  p.seq = seq;
  p.cap0 = cap0_;
  p.cap1 = cap1_;
  p.sent_time = sim_->now();
  if (tracer_ != nullptr) trace_send(p, seq, is_retransmit);
  Link* out = host_->network()->next_hop(host_->id(), cfg_.dst);
  out->send(std::move(p));
  ++packets_sent_;
  if (is_retransmit) ++retransmits_;

  // Time one segment per window for RTT sampling (Karn: never a retransmit).
  if (!is_retransmit && timed_sent_ < 0.0) {
    timed_seq_ = seq;
    timed_sent_ = sim_->now();
  }
  last_send_or_ack_ = sim_->now();
  arm_timer();
}

void TcpSource::handle_ack(const Packet& p) {
  if (p.ack > snd_una_) {
    TimeSec rtt_sample = -1.0;
    if (timed_sent_ >= 0.0 && p.ack > timed_seq_) {
      rtt_sample = sim_->now() - timed_sent_;
      timed_sent_ = -1.0;
    }
    if (tracer_ != nullptr) trace_acked(snd_una_, p.ack);
    snd_una_ = p.ack;
    dupacks_ = 0;
    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;  // full ACK: loss window repaired
      } else {
        // NewReno partial ACK: another segment of the loss window is
        // missing — retransmit it immediately instead of waiting for three
        // more duplicate ACKs or the retransmission timer.
        transmit(snd_una_, /*is_retransmit=*/true);
      }
    }
    on_new_ack(p.ack, rtt_sample);
    if (cfg_.total_packets != 0 && snd_una_ >= cfg_.total_packets) {
      complete();
      return;
    }
    send_available();
  } else if (p.ack == snd_una_) {
    if (next_seq_ == snd_una_) return;  // nothing outstanding; stray ack
    ++dupacks_;
    if (dupacks_ == 3 && !in_recovery_) enter_fast_retransmit();
  }
}

void TcpSource::on_new_ack(std::uint64_t, TimeSec rtt_sample) {
  if (rtt_sample >= 0.0) {
    if (!rtt_seeded_) {
      srtt_ = rtt_sample;
      rttvar_ = rtt_sample / 2.0;
      rtt_seeded_ = true;
    } else {
      rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt_sample);
      srtt_ = 0.875 * srtt_ + 0.125 * rtt_sample;
    }
    backoff_ = 1;
  }
  // Window growth: slow start below ssthresh, else +1/cwnd per ACK. Recovery
  // freezes growth until the loss window is fully acknowledged.
  if (!in_recovery_) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;
    } else {
      cwnd_ += 1.0 / cwnd_;
    }
    cwnd_ = std::min(cwnd_, cfg_.max_cwnd);
  }
  last_send_or_ack_ = sim_->now();
}

void TcpSource::enter_fast_retransmit() {
  const double flight = static_cast<double>(next_seq_ - snd_una_);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = ssthresh_;
  in_recovery_ = true;
  recover_ = next_seq_;
  transmit(snd_una_, /*is_retransmit=*/true);
}

TimeSec TcpSource::rto() const {
  const TimeSec base =
      rtt_seeded_ ? std::max(cfg_.min_rto, srtt_ + 4.0 * rttvar_) : 1.0;
  return std::min(cfg_.max_rto, base * backoff_);
}

void TcpSource::arm_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  const std::uint64_t gen = ++timer_gen_;
  sim_->schedule_in(rto(), [this, gen] {
    if (gen != timer_gen_) return;
    timer_armed_ = false;
    on_timer();
  });
}

void TcpSource::on_timer() {
  if (state_ == State::kDone || state_ == State::kIdle) return;
  const TimeSec idle = sim_->now() - last_send_or_ack_;
  if (idle + 1e-12 < rto()) {
    // Activity since the timer was set; re-arm for the remainder.
    timer_armed_ = true;
    const std::uint64_t gen = ++timer_gen_;
    sim_->schedule_in(rto() - idle, [this, gen] {
      if (gen != timer_gen_) return;
      timer_armed_ = false;
      on_timer();
    });
    return;
  }
  ++timeouts_;
  backoff_ = std::min(backoff_ * 2, 64);
  if (state_ == State::kSynSent) {
    send_syn();
    return;
  }
  if (next_seq_ == snd_una_ && cfg_.total_packets != 0 &&
      snd_una_ >= cfg_.total_packets) {
    return;  // raced with completion
  }
  // Timeout: collapse to one segment and go-back-N from the hole.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  in_recovery_ = false;
  timed_sent_ = -1.0;
  next_seq_ = snd_una_;
  send_available();
}

void TcpSource::complete() {
  if (state_ == State::kDone) return;
  state_ = State::kDone;
  finish_time_ = sim_->now();
  ++timer_gen_;  // cancel any pending timer
  if (completion_) completion_(finish_time_);
}

}  // namespace floc
