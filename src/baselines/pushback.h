// Pushback — Aggregate-based Congestion Control (Mahajan, Bellovin, Floyd,
// Ioannidis, Paxson & Shenker, 2002).
//
// On sustained congestion the router identifies the traffic aggregates
// responsible (here: clusters of flows sharing an origin-path prefix of
// configurable depth), computes a common rate limit L by water-filling so
// that the post-limit arrival rate fits the link, and drops the aggregates'
// excess before the queue. Rate throttling activates only when the drop
// rate crosses `congestion_threshold`, which reproduces Pushback's
// characteristic lateness against low-rate ("bandwidth soaking") attacks.
// Since limits apply to whole aggregates, legitimate flows inside an attack
// aggregate share the penalty — the collateral damage FLoc eliminates.
//
// Upstream propagation (the "pushback" proper) relocates the drops to
// upstream routers; it does not change bandwidth shares at the congested
// link, so this implementation applies the limiters locally (noted in
// DESIGN.md).
#pragma once

#include <unordered_map>

#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"
#include "util/rng.h"
#include "util/units.h"

namespace floc {

struct PushbackConfig {
  std::size_t buffer_packets = 1000;
  BitsPerSec link_bandwidth = mbps(500);
  int aggregate_prefix_len = 3;     // origin-path prefix depth for clustering
  TimeSec interval = 1.0;           // ACC decision interval
  double congestion_threshold = 0.1;  // drop ratio that triggers throttling
  double target_utilization = 0.95;   // post-limit arrival target
  int max_limited_aggregates = 8;
  TimeSec limiter_timeout = 5.0;    // release limits after calm period
  std::uint64_t rng_seed = 13;
};

class PushbackQueue : public QueueDisc {
 public:
  // Invoked when an aggregate limit is installed or refreshed; upstream
  // routers use it to install matching RateLimiterQueue limits (the
  // "pushback" propagation proper).
  using PushbackHandler =
      std::function<void(const PathId& prefix, BitsPerSec rate, TimeSec expires)>;
  // Pushback status feedback: bytes shed upstream for `prefix` since the
  // last probe. With upstream shedding, local arrivals understate an
  // aggregate's offered rate; the probe restores the true rate, which is
  // what the original protocol's status messages carry.
  using ShedProbe = std::function<double(const PathId& prefix)>;

  explicit PushbackQueue(PushbackConfig cfg);

  void set_pushback_handler(PushbackHandler h) { handler_ = std::move(h); }
  void set_shed_probe(ShedProbe p) { shed_probe_ = std::move(p); }

  bool enqueue(Packet&& p, TimeSec now) override;
  std::optional<Packet> dequeue(TimeSec now) override;
  bool empty() const override { return q_.empty(); }
  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return q_.bytes(); }

  bool throttling_active() const { return !limits_.empty(); }
  std::size_t limited_aggregate_count() const { return limits_.size(); }
  double limit_for(const PathId& path) const;

  // Generic queue gauges plus "<prefix>.limited_aggregates" and
  // "<prefix>.throttling" (0/1).
  void register_metrics(telemetry::MetricRegistry& reg,
                        const std::string& prefix) const override;

  // Minimal incident dump: base counters plus the active aggregate limits
  // (sorted by aggregate key).
  void snapshot_state(json::JsonWriter& w, TimeSec now) const override;

 private:
  std::uint64_t aggregate_key(const PathId& path) const;
  void acc_update(TimeSec now);

  PushbackConfig cfg_;
  Rng rng_;
  PacketFifo q_;

  // Per-aggregate arrival accounting for the current interval.
  struct AggStat {
    double bytes = 0.0;
  };
  std::unordered_map<std::uint64_t, AggStat> arrivals_;
  // Prefix PathId per aggregate key (learned from traffic) so pushback
  // messages can carry the prefix upstream.
  std::unordered_map<std::uint64_t, PathId> prefix_of_;
  PushbackHandler handler_;
  ShedProbe shed_probe_;
  std::uint64_t drops_interval_ = 0;
  std::uint64_t packets_interval_ = 0;
  TimeSec interval_end_ = 0.0;
  TimeSec last_congested_ = -1.0;

  // Active rate limits: aggregate key -> (rate bps, token bucket state).
  struct Limit {
    double rate_bps;
    double tokens_bytes;
    TimeSec last_refill;
  };
  std::unordered_map<std::uint64_t, Limit> limits_;
};

}  // namespace floc
