// Property sweep over ScalableDropFilter configurations: estimation
// monotonicity and bounds must hold for any (arrays, bits, cadence).
#include <cstdint>

#include <gtest/gtest.h>

#include "core/drop_filter.h"

namespace floc {
namespace {

// gtest prints a parameter without a PrintTo as its raw bytes, and ctest
// takes that dump into each test's name. `filler` occupies the four bytes the
// compiler would otherwise leave as tail padding, so they are always zero
// instead of leftover stack contents that change from run to run.
struct FilterCase {
  int arrays;
  int bits;
  double epoch;
  int rate_multiple;  // drops per epoch of the "hot" flow
  std::int32_t filler = 0;
};
static_assert(sizeof(FilterCase) == 24, "FilterCase must have no padding");

class DropFilterSweep : public ::testing::TestWithParam<FilterCase> {};

TEST_P(DropFilterSweep, HotFlowOutranksConformantFlow) {
  const FilterCase fc = GetParam();
  DropFilterConfig cfg;
  cfg.arrays = fc.arrays;
  cfg.bits = fc.bits;
  cfg.drop_bits = 12;
  ScalableDropFilter f(cfg);

  // Conformant flow: one drop per epoch. Hot flow: rate_multiple per epoch.
  const int epochs = 12;
  for (int e = 0; e < epochs; ++e) {
    const double t0 = (e + 1) * fc.epoch;
    f.record_drop(1, t0, fc.epoch);
    for (int d = 0; d < fc.rate_multiple; ++d) {
      f.record_drop(2, t0 + d * fc.epoch / (fc.rate_multiple + 1), fc.epoch);
    }
  }
  const double now = (epochs + 1.5) * fc.epoch;  // strictly after all records
  const double p_cold = f.preferential_drop_prob(1, now, fc.epoch);
  const double p_hot = f.preferential_drop_prob(2, now, fc.epoch);
  EXPECT_GE(p_hot, p_cold);
  EXPECT_GT(p_hot, 0.3);
  EXPECT_LT(p_cold, 0.4);
  // Over-rate estimates ordered and bounded below by 1.
  EXPECT_GE(f.over_rate(2, now, fc.epoch), f.over_rate(1, now, fc.epoch));
  EXPECT_GE(f.over_rate(1, now, fc.epoch), 1.0);
  // Probabilities are probabilities.
  EXPECT_GE(p_hot, 0.0);
  EXPECT_LT(p_hot, 1.0);
}

TEST_P(DropFilterSweep, SilenceDecaysEverything) {
  const FilterCase fc = GetParam();
  DropFilterConfig cfg;
  cfg.arrays = fc.arrays;
  cfg.bits = fc.bits;
  cfg.drop_bits = 8;
  ScalableDropFilter f(cfg);
  for (int d = 0; d < 40; ++d) f.record_drop(7, 1.0 + d * 0.001, fc.epoch);
  // After many quiet epochs the penalty disappears (legitimate flows'
  // history ages out of the filter, Section V-B.2).
  const double later = 1.0 + 400 * fc.epoch;
  EXPECT_DOUBLE_EQ(f.preferential_drop_prob(7, later, fc.epoch), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DropFilterSweep,
    ::testing::Values(FilterCase{2, 10, 0.1, 4}, FilterCase{4, 12, 0.1, 4},
                      FilterCase{4, 12, 0.5, 8}, FilterCase{6, 14, 0.05, 16},
                      FilterCase{4, 16, 1.0, 3}, FilterCase{3, 12, 0.25, 32}));

}  // namespace
}  // namespace floc
