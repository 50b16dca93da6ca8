#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace floc {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, Reset) {
  RunningStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(Ewma, SeedsWithFirstValue) {
  Ewma e(0.2);
  EXPECT_FALSE(e.seeded());
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, Converges) {
  Ewma e(0.2, 0.0);
  e.set(0.0);
  for (int i = 0; i < 100; ++i) e.add(1.0);
  EXPECT_NEAR(e.value(), 1.0, 1e-6);
}

TEST(Ewma, MatchesFormula) {
  // Eq. IV.6 form: v' = beta*x + (1-beta)*v.
  Ewma e(0.25);
  e.set(0.8);
  e.add(0.4);
  EXPECT_DOUBLE_EQ(e.value(), 0.25 * 0.4 + 0.75 * 0.8);
}

TEST(Cdf, QuantilesOfUniformSequence) {
  Cdf c;
  for (int i = 1; i <= 100; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);
  EXPECT_NEAR(c.quantile(0.5), 50.5, 0.01);
}

TEST(Cdf, FractionBelow) {
  Cdf c;
  for (int i = 1; i <= 10; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.fraction_below(5.5), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(100.0), 1.0);
}

TEST(Cdf, Mean) {
  Cdf c;
  for (double x : {1.0, 2.0, 3.0, 4.0}) c.add(x);
  EXPECT_DOUBLE_EQ(c.mean(), 2.5);
}

TEST(Cdf, AddAfterQueryStaysSorted) {
  Cdf c;
  for (double x : {3.0, 1.0}) c.add(x);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 3.0);
  c.add(0.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(1.0), 1.0 / 3.0);
}

TEST(Cdf, EmptySafe) {
  Cdf c;
  EXPECT_EQ(c.quantile(0.5), 0.0);
  EXPECT_EQ(c.mean(), 0.0);
}

TEST(JainFairness, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({3.0, 3.0, 3.0}), 1.0);
  // One flow hogging everything among n flows -> 1/n.
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 0.0, 0.0, 0.0}), 0.25);
  // Textbook example: {1,2,3} -> 36/(3*14).
  EXPECT_NEAR(jain_fairness({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(JainFairness, ZeroAllocationsSafe) {
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
}

}  // namespace
}  // namespace floc
