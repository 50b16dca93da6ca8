// Upstream rate-limiter queue for Pushback propagation: a drop-tail FIFO
// with dynamically installable per-path-prefix rate limits (token buckets).
// A congested downstream router "pushes back" an aggregate limit; this queue
// then sheds the aggregate's excess one hop earlier, freeing the downstream
// buffer for other traffic.
#pragma once

#include <unordered_map>

#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"
#include "util/units.h"

namespace floc {

class RateLimiterQueue : public QueueDisc {
 public:
  explicit RateLimiterQueue(std::size_t capacity_packets)
      : capacity_(capacity_packets) {}

  bool enqueue(Packet&& p, TimeSec now) override;
  std::optional<Packet> dequeue(TimeSec now) override;
  bool empty() const override { return q_.empty(); }
  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return q_.bytes(); }

  // Install (or refresh) a limit for packets whose path starts with `prefix`.
  // The limit expires at `expires` (refreshed by subsequent pushback
  // messages while congestion persists).
  void install_limit(const PathId& prefix, BitsPerSec rate, TimeSec expires);
  void release_limit(const PathId& prefix);
  std::size_t active_limits() const { return limits_.size(); }

  // Pushback status feedback: bytes shed for `prefix` since the last call
  // (returns and resets the counter). The congested router adds this to its
  // locally observed arrivals to recover the aggregate's true offered rate.
  double take_shed_bytes(const PathId& prefix);

  // Minimal incident dump: base counters plus the installed prefix limits
  // (sorted by prefix key).
  void snapshot_state(json::JsonWriter& w, TimeSec now) const override;

 private:
  struct Limit {
    PathId prefix;
    double rate_bps;
    double tokens_bytes;
    TimeSec last_refill;
    TimeSec expires;
    double shed_bytes = 0.0;  // dropped since last status report
  };

  std::size_t capacity_;
  PacketFifo q_;
  std::unordered_map<std::uint64_t, Limit> limits_;  // by prefix key
};

}  // namespace floc
