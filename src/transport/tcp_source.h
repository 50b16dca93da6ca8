// TCP Reno source model: slow start, congestion avoidance, fast retransmit on
// three duplicate ACKs, exponential-backoff RTO with go-back-N recovery.
//
// This is the "legitimate flow" reference behaviour FLoc's analytical model
// assumes (Section IV-A): AIMD window dynamics with one drop per congestion
// epoch and mean window 3/4 of the peak.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "netsim/network.h"
#include "netsim/node.h"
#include "netsim/simulator.h"
#include "telemetry/tracing.h"

namespace floc {

struct TcpSourceConfig {
  FlowId flow = 0;
  HostAddr dst = 0;
  PathId path;                 // domain-path identifier stamped on every packet
  int packet_bytes = 1500;
  std::uint64_t total_packets = 0;  // 0 => persistent (unbounded transfer)
  double max_cwnd = 64.0;      // receiver/window clamp (packets)
  double initial_ssthresh = 64.0;
  TimeSec min_rto = 0.2;
  TimeSec max_rto = 8.0;
};

class TcpSource : public Agent {
 public:
  TcpSource(Simulator* sim, Host* host, TcpSourceConfig cfg);

  // Begin the connection (SYN handshake, then data) at time `t`.
  void start_at(TimeSec t);

  void on_packet(Packet&& p) override;

  bool done() const { return state_ == State::kDone; }
  bool established() const { return state_ == State::kEstablished; }
  double cwnd() const { return cwnd_; }
  TimeSec srtt() const { return srtt_; }
  TimeSec finish_time() const { return finish_time_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  FlowId flow() const { return cfg_.flow; }

  // Invoked when the transfer completes (persistent sources never fire it).
  void set_completion_handler(std::function<void(TimeSec)> h) {
    completion_ = std::move(h);
  }

  // Attach causal span tracing: the SYN handshake becomes a kTcpHandshake
  // span, and every data segment a kTcpSend span opened at (re)transmission
  // and closed by the covering ACK. Outgoing packets carry the span in
  // Packet::span so downstream queue/link spans parent under it (trace id =
  // flow, pid = source host, tid = flow). Null detaches; detached sends do
  // zero tracing work and zero allocations.
  void set_tracer(telemetry::Tracer* tracer);

 private:
  enum class State { kIdle, kSynSent, kEstablished, kDone };

  void send_syn();
  void send_available();
  void transmit(std::uint64_t seq, bool is_retransmit);
  void handle_ack(const Packet& p);
  void on_new_ack(std::uint64_t acked_through, TimeSec rtt_sample);
  void enter_fast_retransmit();
  void arm_timer();
  void on_timer();
  void complete();
  TimeSec rto() const;

  // Tracing slow paths; callers gate on `tracer_ != nullptr`.
  void trace_syn(Packet& p);
  void trace_send(Packet& p, std::uint64_t seq, bool is_retransmit);
  void trace_acked(std::uint64_t from_seq, std::uint64_t acked_through);

  Simulator* sim_;
  Host* host_;
  TcpSourceConfig cfg_;

  State state_ = State::kIdle;
  double cwnd_ = 1.0;
  double ssthresh_;
  std::uint64_t next_seq_ = 0;   // next new sequence to send
  std::uint64_t snd_una_ = 0;    // lowest unacknowledged sequence
  std::uint64_t recover_ = 0;    // fast-recovery exit point
  int dupacks_ = 0;
  bool in_recovery_ = false;

  // Capability echoed from the SYN-ACK onto all later packets.
  std::uint64_t cap0_ = 0;
  std::uint64_t cap1_ = 0;

  // RTT estimation (Jacobson/Karels).
  TimeSec srtt_ = 0.0;
  TimeSec rttvar_ = 0.0;
  bool rtt_seeded_ = false;
  std::uint64_t timed_seq_ = 0;
  TimeSec timed_sent_ = -1.0;
  int backoff_ = 1;

  // Timer bookkeeping: one outstanding event, validity by generation.
  std::uint64_t timer_gen_ = 0;
  bool timer_armed_ = false;
  TimeSec last_send_or_ack_ = 0.0;

  TimeSec finish_time_ = -1.0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::function<void(TimeSec)> completion_;

  // Tracing (null = off; populated only while attached).
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::SpanId syn_span_ = 0;
  std::unordered_map<std::uint64_t, telemetry::SpanId> send_spans_;
};

}  // namespace floc
