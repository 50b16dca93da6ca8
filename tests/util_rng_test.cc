#include "util/rng.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace floc {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(5.0, 9.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(17);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 6000; ++i) counts[r.uniform_int(6)]++;
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [v, c] : counts) {
    EXPECT_LT(v, 6u);
    EXPECT_GT(c, 800);  // roughly uniform
  }
}

// uniform_int skips the threshold division when r >= n; it must still
// consume and return exactly what plain two-division rejection does. The
// large bounds make r < n common, so both branches and real rejections run.
TEST(Rng, UniformIntMatchesReferenceRejection) {
  auto reference = [](Rng& rng, std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold) return r % n;
    }
  };
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  1000,
                                  (std::uint64_t{1} << 32) + 1,
                                  (std::uint64_t{1} << 63) + 1,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t n : bounds) {
    Rng fast(29), ref(29);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(fast.uniform_int(n), reference(ref, n)) << n << " draw " << i;
    }
    EXPECT_EQ(fast.next_u64(), ref.next_u64()) << n;  // same draws consumed
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_TRUE(r.chance(1.5));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng r(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng r(29);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng r(31);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Rng, ZipfSkewed) {
  Rng r(37);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[r.zipf(100, 1.2)]++;
  // Rank 0 should dominate and the tail should be thin.
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], counts[50] * 5);
  for (int c : counts) EXPECT_GE(c, 0);
}

TEST(Rng, ZipfBounds) {
  Rng r(41);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.zipf(10, 0.9), 10u);
  EXPECT_EQ(r.zipf(1, 1.0), 0u);
}

TEST(Rng, ForkIndependence) {
  Rng a(99);
  Rng b = a.fork(1);
  Rng c = a.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (b.next_u64() == c.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace floc
