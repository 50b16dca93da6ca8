#include "core/state_budget.h"

#include <algorithm>

namespace floc {

const char* to_string(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kLowestOffenseFirst: return "lowest-offense-first";
    case EvictionPolicy::kProbabilisticDecay: return "probabilistic-decay";
  }
  return "?";
}

bool from_string(const std::string& name, EvictionPolicy* out) {
  for (std::size_t i = 0; i < kEvictionPolicyCount; ++i) {
    const EvictionPolicy p = static_cast<EvictionPolicy>(i);
    if (name == to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

std::size_t StateBudgetConfig::shrink_target() const {
  if (!enabled()) return 0;
  const double frac = std::min(std::max(evict_to, 0.0), 1.0);
  const auto target = static_cast<std::size_t>(
      frac * static_cast<double>(capacity));
  // At least one slot must open up, or the insert that triggered the
  // enforcement would push the table back over capacity.
  return std::min(target, capacity - 1);
}

namespace {
std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 64;  // minimum one word
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

EvictionSketch::EvictionSketch(std::uint64_t seed, std::size_t bits)
    : mask_(round_up_pow2(bits) - 1), seed_(seed) {
  const std::size_t words = (mask_ + 1) / 64;
  banks_[0].assign(words, 0);
  banks_[1].assign(words, 0);
}

void EvictionSketch::probes(std::uint64_t key, std::size_t* i1,
                            std::size_t* i2) const {
  const std::uint64_t h = mix64(key ^ seed_ ^ 0xE71C7E71C7E71C71ULL);
  *i1 = static_cast<std::size_t>(h) & mask_;
  *i2 = static_cast<std::size_t>(h >> 32) & mask_;
}

bool EvictionSketch::get(const std::vector<std::uint64_t>& bank,
                         std::size_t bit) {
  return (bank[bit >> 6] >> (bit & 63)) & 1u;
}

void EvictionSketch::set(std::vector<std::uint64_t>& bank, std::size_t bit) {
  bank[bit >> 6] |= std::uint64_t{1} << (bit & 63);
}

void EvictionSketch::mark(std::uint64_t key) {
  std::size_t i1, i2;
  probes(key, &i1, &i2);
  set(banks_[fresh_], i1);
  set(banks_[fresh_], i2);
  ++marks_;
}

bool EvictionSketch::test(std::uint64_t key) const {
  std::size_t i1, i2;
  probes(key, &i1, &i2);
  for (const auto& bank : banks_) {
    if (get(bank, i1) && get(bank, i2)) return true;
  }
  return false;
}

void EvictionSketch::rotate() {
  fresh_ ^= 1;
  std::fill(banks_[fresh_].begin(), banks_[fresh_].end(), 0);
}

}  // namespace floc
