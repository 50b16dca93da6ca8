#include "util/rng.h"

#include <cmath>

#include "util/seed.h"

namespace floc {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  // SplitMix64 expansion of the single seed into the four state words,
  // sharing the finalizer with util/seed.h's derive_seed.
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x += 0x9E3779B97F4A7C15ULL;
    s = mix64(x);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Rejection keeps streams exactly uniform: draws below 2^64 mod n are
  // redrawn. That threshold is below n, so a draw r >= n is accepted
  // without computing it, and almost every call costs one division.
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= n || r >= (0 - n) % n) return r % n;
  }
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  // Inverse-CDF approximation (continuous Zipf), then clamp to [0, n).
  // Accurate enough for skew modelling of bot populations.
  if (n <= 1) return 0;
  const double u = uniform();
  double v;
  if (std::abs(s - 1.0) < 1e-9) {
    v = std::exp(u * std::log(static_cast<double>(n)));
  } else {
    const double t = std::pow(static_cast<double>(n), 1.0 - s);
    v = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
  }
  auto idx = static_cast<std::uint64_t>(v) - (v >= 1.0 ? 1 : 0);
  if (idx >= n) idx = n - 1;
  return idx;
}

Rng Rng::fork(std::uint64_t salt) {
  return Rng(next_u64() ^ (salt * 0x2545F4914F6CDD1DULL));
}

}  // namespace floc
