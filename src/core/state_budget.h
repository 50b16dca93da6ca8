// Bounded-state policy for the defense's own bookkeeping tables.
//
// FLoc's dependability rests on per-path and per-sender state (origin paths,
// flow records, offense records, the offender blacklist). Left unbounded, an
// adversary that churns path identifiers or sender addresses exhausts the
// *defense's* memory long before the link floods — a state-exhaustion attack
// on the protection itself. This header provides the reusable pieces every
// bounded table shares:
//
//  * StateBudgetConfig — a capacity (0 = unbounded, the default: baseline
//    behavior is bit-identical with budgets off) plus an eviction policy;
//  * enforce_budget() — deterministic batch eviction down to a shrink
//    target. Victim selection never depends on unordered_map iteration
//    order: candidates are ranked by (policy primary, recency, key) — a
//    strict total order — so the evicted SET (and the callback order) is a
//    pure function of table contents, independent of hashing, insertion
//    history, or --jobs;
//  * EvictionSketch — a two-bank bloom-style sketch of recently evicted
//    *guilty* keys, giving eviction-safe re-latch semantics: an offender
//    whose verdict state was evicted under pressure and who resumes
//    attacking is re-detected within one MTD (control) interval instead of
//    enjoying a fresh hysteresis run-up. False positives are harmless — a
//    colliding innocent path only loses latch hysteresis, the detection
//    condition itself must still hold for it to be penalized.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/seed.h"

namespace floc {

// Who gets evicted first when a table is over budget.
enum class EvictionPolicy : std::uint8_t {
  kLru,                // least-recently-touched entries first
  kLowestOffenseFirst, // least-offending entries first (offenders stay pinned)
  kProbabilisticDecay, // uniform pseudo-random victims (seeded, deterministic)
};
inline constexpr std::size_t kEvictionPolicyCount = 3;

const char* to_string(EvictionPolicy p);
// Inverse of to_string; returns false (and leaves *out alone) for unknown
// names. Round-tripped exhaustively in tests.
bool from_string(const std::string& name, EvictionPolicy* out);

struct StateBudgetConfig {
  // Maximum entries the table may hold. 0 = unbounded (bounding off); the
  // default, so baseline runs are bit-identical to the un-budgeted code.
  std::size_t capacity = 0;
  EvictionPolicy policy = EvictionPolicy::kLru;
  // Batch eviction: when an insert finds the table at capacity, shrink to
  // `evict_to * capacity` in one pass, amortizing the O(n) candidate scan
  // over the next (1 - evict_to) * capacity inserts.
  double evict_to = 0.9;

  bool enabled() const { return capacity > 0; }
  std::size_t shrink_target() const;
};

// Per-entry rank supplied by the table owner. Smaller evicts first.
struct EvictRank {
  double score = 0.0;        // kLowestOffenseFirst primary (offense level)
  std::uint64_t recency = 0; // kLru primary; monotone touch stamp
};

namespace detail {
struct EvictCandidate {
  double primary = 0.0;
  std::uint64_t secondary = 0;
  std::uint64_t key_bits = 0;  // unique final tiebreak
};
inline bool evicts_before(const EvictCandidate& a, const EvictCandidate& b) {
  if (a.primary != b.primary) return a.primary < b.primary;
  if (a.secondary != b.secondary) return a.secondary < b.secondary;
  return a.key_bits < b.key_bits;
}
// Ranks per-policy: (primary, secondary) before the key tiebreak.
inline EvictCandidate make_candidate(EvictionPolicy policy,
                                     std::uint64_t key_bits,
                                     const EvictRank& r,
                                     std::uint64_t decay_salt) {
  EvictCandidate c;
  c.key_bits = key_bits;
  switch (policy) {
    case EvictionPolicy::kLru:
      c.primary = 0.0;
      c.secondary = r.recency;
      break;
    case EvictionPolicy::kLowestOffenseFirst:
      c.primary = r.score;
      c.secondary = r.recency;
      break;
    case EvictionPolicy::kProbabilisticDecay:
      c.primary = 0.0;
      c.secondary = mix64(key_bits ^ decay_salt);
      break;
  }
  return c;
}
}  // namespace detail

// Reusable candidate buffer for enforce_budget; a caller that enforces
// repeatedly keeps one so each batch ranks without allocating.
using EvictScratch = std::vector<detail::EvictCandidate>;

// Shrinks `map` to the budget's shrink target if (and only if) it has
// reached capacity. `rank_of(key, value)` supplies the EvictRank;
// `on_evict(key, value)` runs for each victim, in deterministic
// evicts-first order, immediately before erasure. `decay_salt` seeds the
// kProbabilisticDecay hash (vary it per enforcement round so repeated
// pressure does not re-target the same survivors). `scratch` holds the
// ranked candidates (contents overwritten). Returns evicted count. Map keys
// must be integers (the candidate's key_bits round-trips the key).
//
// Call this BEFORE inserting a new entry: the post-insert size is then
// <= shrink_target + 1 <= capacity, so a bounded table never exceeds its
// configured budget at any observable point.
template <typename Map, typename RankFn, typename EvictFn>
std::size_t enforce_budget(Map& map, const StateBudgetConfig& budget,
                           std::uint64_t decay_salt, EvictScratch& scratch,
                           RankFn&& rank_of, EvictFn&& on_evict) {
  if (!budget.enabled() || map.size() < budget.capacity) return 0;
  const std::size_t target = budget.shrink_target();
  if (map.size() <= target) return 0;
  const std::size_t victims = map.size() - target;

  const auto before = [](const detail::EvictCandidate& a,
                          const detail::EvictCandidate& b) {
    return detail::evicts_before(a, b);
  };
  EvictScratch& ranked = scratch;
  ranked.clear();
  for (const auto& [key, value] : map) {
    const std::uint64_t key_bits = static_cast<std::uint64_t>(key);
    ranked.push_back(detail::make_candidate(budget.policy, key_bits,
                                            rank_of(key, value), decay_salt));
  }
  std::nth_element(ranked.begin(),
                   ranked.begin() + static_cast<std::ptrdiff_t>(victims - 1),
                   ranked.end(), before);
  // Deterministic callback order within the victim prefix (it is small).
  std::sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(victims),
            before);
  for (std::size_t i = 0; i < victims; ++i) {
    const auto it =
        map.find(static_cast<typename Map::key_type>(ranked[i].key_bits));
    on_evict(it->first, it->second);
    map.erase(it);
  }
  return victims;
}

// Two-bank bloom-style membership sketch over evicted-offender keys. mark()
// writes into the fresh bank; test() consults both; rotate() retires the
// older bank, so a mark survives between one and two rotation periods —
// long enough to cover an attacker that pauses briefly after pushing its
// own verdict out of the table, without remembering stale verdicts forever.
// Fixed 2 x 8 KiB footprint: the whole point is state that cannot be
// inflated by the adversary.
class EvictionSketch {
 public:
  explicit EvictionSketch(std::uint64_t seed = 0, std::size_t bits = 1 << 16);

  void mark(std::uint64_t key);
  bool test(std::uint64_t key) const;
  void rotate();

  std::uint64_t marks() const { return marks_; }

 private:
  void probes(std::uint64_t key, std::size_t* i1, std::size_t* i2) const;
  static bool get(const std::vector<std::uint64_t>& bank, std::size_t bit);
  static void set(std::vector<std::uint64_t>& bank, std::size_t bit);

  std::size_t mask_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> banks_[2];
  int fresh_ = 0;
  std::uint64_t marks_ = 0;
};

}  // namespace floc
