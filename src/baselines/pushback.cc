#include "baselines/pushback.h"

#include <algorithm>
#include <vector>

#include "telemetry/metrics.h"
#include "util/json.h"

namespace floc {

PushbackQueue::PushbackQueue(PushbackConfig cfg)
    : cfg_(cfg), rng_(cfg.rng_seed) {}

std::uint64_t PushbackQueue::aggregate_key(const PathId& path) const {
  PathId prefix = path;
  if (prefix.length() > cfg_.aggregate_prefix_len)
    prefix.truncate_to(cfg_.aggregate_prefix_len);
  return prefix.key();
}

double PushbackQueue::limit_for(const PathId& path) const {
  const auto it = limits_.find(aggregate_key(path));
  return it == limits_.end() ? -1.0 : it->second.rate_bps;
}

void PushbackQueue::acc_update(TimeSec now) {
  if (interval_end_ == 0.0) {
    interval_end_ = now + cfg_.interval;
    return;
  }
  if (now < interval_end_) return;
  const TimeSec interval = cfg_.interval;
  interval_end_ = now + interval;

  const double drop_ratio =
      packets_interval_ > 0
          ? static_cast<double>(drops_interval_) /
                static_cast<double>(packets_interval_ + drops_interval_)
          : 0.0;

  // Offered rate per aggregate = local arrivals + upstream-shed traffic
  // (the pushback status feedback). Without the probe the shed component is
  // zero and the estimate degrades to the local view.
  std::vector<std::pair<std::uint64_t, double>> rates;
  double total = 0.0;
  rates.reserve(arrivals_.size());
  for (const auto& [k, s] : arrivals_) {
    double bytes = s.bytes;
    if (shed_probe_) {
      const auto pit = prefix_of_.find(k);
      if (pit != prefix_of_.end()) bytes += shed_probe_(pit->second);
    }
    const double r = bytes * kBitsPerByte / interval;
    rates.emplace_back(k, r);
    total += r;
  }

  const double target = cfg_.target_utilization * cfg_.link_bandwidth;
  const bool congested = drop_ratio > cfg_.congestion_threshold ||
                         (!limits_.empty() && total > target);

  if (congested) {
    last_congested_ = now;
    // Water-filling: find the common limit L over the highest-rate
    // aggregates such that sum(min(rate_i, L)) <= target capacity.
    std::sort(rates.begin(), rates.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });

    if (total > target && !rates.empty()) {
      // Lower L until the limited sum fits, limiting at most
      // max_limited_aggregates of the top senders.
      const int max_n =
          std::min<std::size_t>(rates.size(),
                                static_cast<std::size_t>(cfg_.max_limited_aggregates));
      double rest = total;
      double best_l = rates.front().second;
      int best_n = 0;
      for (int n = 1; n <= max_n; ++n) {
        rest -= rates[static_cast<std::size_t>(n - 1)].second;
        // Limit the top n aggregates to a common L: n*L + rest = target.
        const double l = (target - rest) / n;
        const double next_rate =
            n < static_cast<int>(rates.size()) ? rates[static_cast<std::size_t>(n)].second : 0.0;
        if (l >= next_rate || n == max_n) {
          best_l = std::max(l, 0.0);
          best_n = n;
          if (l >= next_rate) break;
        }
      }
      std::unordered_map<std::uint64_t, Limit> fresh;
      for (int i = 0; i < best_n; ++i) {
        const auto key = rates[static_cast<std::size_t>(i)].first;
        const auto old = limits_.find(key);
        Limit lim{best_l, best_l * interval / kBitsPerByte, now};
        if (old != limits_.end()) {
          lim.tokens_bytes = old->second.tokens_bytes;
          lim.last_refill = old->second.last_refill;
        }
        fresh[key] = lim;
        // Propagate the limit upstream ("pushback"): upstream routers shed
        // the aggregate's excess before it reaches this queue.
        if (handler_) {
          const auto pit = prefix_of_.find(key);
          if (pit != prefix_of_.end()) {
            handler_(pit->second, best_l, now + cfg_.limiter_timeout);
          }
        }
      }
      limits_ = std::move(fresh);
    }
  } else if (last_congested_ >= 0.0 &&
             now - last_congested_ > cfg_.limiter_timeout) {
    limits_.clear();  // calm long enough: release throttles
  }

  arrivals_.clear();
  drops_interval_ = 0;
  packets_interval_ = 0;
}

bool PushbackQueue::enqueue(PacketRef ref, TimeSec now) {
  const Packet& p = *ref;
  acc_update(now);

  if (p.type == PacketType::kData) {
    const std::uint64_t key = aggregate_key(p.path);
    arrivals_[key].bytes += p.size_bytes;
    if (prefix_of_.count(key) == 0) {
      PathId prefix = p.path;
      if (prefix.length() > cfg_.aggregate_prefix_len)
        prefix.truncate_to(cfg_.aggregate_prefix_len);
      prefix_of_[key] = prefix;
    }
    ++packets_interval_;

    // Enforce active aggregate limit (token bucket at rate L).
    auto it = limits_.find(aggregate_key(p.path));
    if (it != limits_.end()) {
      Limit& lim = it->second;
      const double cap = lim.rate_bps * 0.1 / kBitsPerByte;  // 100 ms burst
      lim.tokens_bytes =
          std::min(cap, lim.tokens_bytes +
                            lim.rate_bps * (now - lim.last_refill) / kBitsPerByte);
      lim.last_refill = now;
      if (lim.tokens_bytes < p.size_bytes) {
        ++drops_interval_;
        note_drop(p, DropReason::kRateLimit, now);
        return false;
      }
      lim.tokens_bytes -= p.size_bytes;
    }
  }

  if (q_.size() >= cfg_.buffer_packets) {
    if (p.type == PacketType::kData) ++drops_interval_;
    note_drop(p, DropReason::kQueueFull, now);
    return false;
  }
  q_.push_back(std::move(ref));
  note_admit();
  return true;
}

PacketRef PushbackQueue::dequeue(TimeSec) {
  if (q_.empty()) return {};
  return q_.pop_front();
}

void PushbackQueue::register_metrics(telemetry::MetricRegistry& reg,
                                     const std::string& prefix) const {
  register_queue_gauges(reg, prefix);
  reg.gauge_fn(prefix + ".limited_aggregates", [this] {
    return static_cast<double>(limited_aggregate_count());
  });
  reg.gauge_fn(prefix + ".throttling",
               [this] { return throttling_active() ? 1.0 : 0.0; });
  register_drop_gauges(reg, prefix);
}

void PushbackQueue::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  (void)now;
  w.begin_object();
  w.field("scheme", "pushback");
  w.field("packets", static_cast<std::uint64_t>(packet_count()));
  w.field("bytes", static_cast<std::uint64_t>(byte_count()));
  w.field("drops", drops());
  w.field("admissions", admissions());
  w.field("throttling", throttling_active());
  std::vector<std::uint64_t> keys;
  keys.reserve(limits_.size());
  for (const auto& [k, lim] : limits_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  w.key("limits").begin_array();
  for (const std::uint64_t k : keys) {
    const Limit& lim = limits_.at(k);
    w.begin_object();
    w.field("aggregate", k);
    const auto pit = prefix_of_.find(k);
    w.field("prefix", pit != prefix_of_.end() ? pit->second.to_string() : "?");
    w.field("rate_bps", lim.rate_bps);
    w.field("tokens_bytes", lim.tokens_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace floc
