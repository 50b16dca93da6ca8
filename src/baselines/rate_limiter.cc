#include "baselines/rate_limiter.h"

#include <algorithm>
#include <vector>

#include "util/json.h"

namespace floc {

void RateLimiterQueue::install_limit(const PathId& prefix, BitsPerSec rate,
                                     TimeSec expires) {
  auto it = limits_.find(prefix.key());
  if (it == limits_.end()) {
    limits_[prefix.key()] =
        Limit{prefix, rate, rate * 0.1 / kBitsPerByte, 0.0, expires};
  } else {
    it->second.rate_bps = rate;
    it->second.expires = expires;
  }
}

void RateLimiterQueue::release_limit(const PathId& prefix) {
  limits_.erase(prefix.key());
}

double RateLimiterQueue::take_shed_bytes(const PathId& prefix) {
  auto it = limits_.find(prefix.key());
  if (it == limits_.end()) return 0.0;
  const double shed = it->second.shed_bytes;
  it->second.shed_bytes = 0.0;
  return shed;
}

bool RateLimiterQueue::enqueue(Packet&& p, TimeSec now) {
  if (p.type == PacketType::kData && !limits_.empty()) {
    for (auto it = limits_.begin(); it != limits_.end();) {
      if (it->second.expires <= now) {
        it = limits_.erase(it);
        continue;
      }
      Limit& lim = it->second;
      if (p.path.has_prefix(lim.prefix)) {
        const double cap = lim.rate_bps * 0.1 / kBitsPerByte;  // 100 ms burst
        lim.tokens_bytes = std::min(
            cap, lim.tokens_bytes +
                     lim.rate_bps * (now - lim.last_refill) / kBitsPerByte);
        lim.last_refill = now;
        if (lim.tokens_bytes < p.size_bytes) {
          lim.shed_bytes += p.size_bytes;
          note_drop(p, DropReason::kRateLimit, now);
          return false;
        }
        lim.tokens_bytes -= p.size_bytes;
      }
      ++it;
    }
  }
  if (q_.size() >= capacity_) {
    note_drop(p, DropReason::kQueueFull, now);
    return false;
  }
  q_.push_back(std::move(p));
  note_admit();
  return true;
}

std::optional<Packet> RateLimiterQueue::dequeue(TimeSec) {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  return p;
}

void RateLimiterQueue::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  w.begin_object();
  w.field("scheme", "rate-limiter");
  w.field("packets", static_cast<std::uint64_t>(packet_count()));
  w.field("bytes", static_cast<std::uint64_t>(byte_count()));
  w.field("drops", drops());
  w.field("admissions", admissions());
  std::vector<std::uint64_t> keys;
  keys.reserve(limits_.size());
  for (const auto& [k, lim] : limits_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  w.key("limits").begin_array();
  for (const std::uint64_t k : keys) {
    const Limit& lim = limits_.at(k);
    w.begin_object();
    w.field("prefix", lim.prefix.to_string());
    w.field("rate_bps", lim.rate_bps);
    w.field("tokens_bytes", lim.tokens_bytes);
    w.field("expires", lim.expires);
    w.field("expired", now >= lim.expires);
    w.field("shed_bytes", lim.shed_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace floc
