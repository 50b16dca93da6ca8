#include "core/mtd_tracker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>

#include "util/rng.h"

namespace floc {
namespace {

TEST(MtdTracker, InfiniteWithoutDrops) {
  MtdTracker t(1.0);
  EXPECT_TRUE(std::isinf(t.mtd(10.0)));
  EXPECT_EQ(t.drops_in_window(10.0), 0u);
}

TEST(MtdTracker, WindowOverDropsEqIV4) {
  MtdTracker t(2.0);
  t.record_drop(0.5);
  t.record_drop(1.0);
  t.record_drop(1.5);
  t.record_drop(2.0);
  // MTD = window / drops = 2.0 / 4.
  EXPECT_DOUBLE_EQ(t.mtd(2.0), 0.5);
}

TEST(MtdTracker, OldDropsAgeOut) {
  MtdTracker t(1.0);
  t.record_drop(0.0);
  t.record_drop(0.5);
  EXPECT_EQ(t.drops_in_window(0.9), 2u);
  EXPECT_EQ(t.drops_in_window(1.2), 1u);  // drop at 0.0 expired
  EXPECT_EQ(t.drops_in_window(2.0), 0u);
  EXPECT_TRUE(std::isinf(t.mtd(2.0)));
}

TEST(MtdTracker, HigherDropRateLowerMtd) {
  MtdTracker slow(1.0), fast(1.0);
  for (int i = 0; i < 2; ++i) slow.record_drop(0.1 * i + 0.5);
  for (int i = 0; i < 20; ++i) fast.record_drop(0.04 * i + 0.1);
  EXPECT_GT(slow.mtd(1.0), fast.mtd(1.0));
}

TEST(MtdTracker, AttackFlowMtdScalesInverselyWithRate) {
  // A flow at alpha times fair rate accrues ~alpha times more drops, so its
  // MTD is ~1/alpha of the reference (Section IV-B.2).
  const double window = 1.0;
  MtdTracker fair(window), attack(window);
  const int fair_drops = 4;
  const int alpha = 5;
  for (int i = 0; i < fair_drops; ++i)
    fair.record_drop(i * window / fair_drops);
  for (int i = 0; i < fair_drops * alpha; ++i)
    attack.record_drop(i * window / (fair_drops * alpha));
  EXPECT_NEAR(fair.mtd(window) / attack.mtd(window), alpha, 1e-9);
}

TEST(MtdTracker, MaxRecordsBounded) {
  MtdTracker t(100.0, /*max_records=*/16);
  for (int i = 0; i < 1000; ++i) t.record_drop(i * 0.01);
  EXPECT_LE(t.drops_in_window(10.0), 16u);
  EXPECT_EQ(t.total_drops(), 1000u);
}

TEST(MtdTracker, WindowChangeAffectsMeasure) {
  MtdTracker t(4.0);
  for (int i = 0; i < 4; ++i) t.record_drop(i + 0.5);
  EXPECT_DOUBLE_EQ(t.mtd(4.0), 1.0);
  t.set_window(2.0);
  // Only drops at 2.5, 3.5 remain in window.
  EXPECT_DOUBLE_EQ(t.mtd(4.0), 1.0);
  t.set_window(1.0);
  EXPECT_DOUBLE_EQ(t.mtd(4.0), 1.0);  // drop at 3.5
}

// The std::deque drop history the ring replaced, as a differential oracle.
class DequeMtd {
 public:
  DequeMtd(TimeSec window, std::size_t max_records)
      : window_(window), max_records_(max_records) {}
  void set_window(TimeSec w) { window_ = w; }
  void record_drop(TimeSec now) {
    prune(now);
    if (drops_.size() >= max_records_) drops_.pop_front();
    drops_.push_back(now);
  }
  std::size_t drops_in_window(TimeSec now) {
    prune(now);
    return drops_.size();
  }
  TimeSec mtd(TimeSec now) {
    prune(now);
    if (drops_.empty()) return std::numeric_limits<TimeSec>::infinity();
    return window_ / static_cast<TimeSec>(drops_.size());
  }

 private:
  void prune(TimeSec now) {
    while (!drops_.empty() && drops_.front() < now - window_) {
      drops_.pop_front();
    }
  }
  TimeSec window_;
  std::size_t max_records_;
  std::deque<TimeSec> drops_;
};

TEST(MtdTracker, MatchesDequeReferenceUnderRandomDropsAndWindows) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t max_records = 1 + rng.uniform_int(trial % 2 ? 8 : 700);
    TimeSec window = rng.uniform(0.05, 3.0);
    MtdTracker ring(window, max_records);
    DequeMtd ref(window, max_records);
    TimeSec now = 0.0;
    for (int op = 0; op < 3000; ++op) {
      // Bursty drop times: long runs of dense drops overflow max_records,
      // occasional long gaps age the whole history out.
      now += rng.chance(0.01) ? rng.uniform(0.0, 5.0) : rng.uniform(0.0, 0.01);
      const std::uint64_t what = rng.uniform_int(20);
      if (what < 14) {
        ring.record_drop(now);
        ref.record_drop(now);
      } else if (what < 15) {
        window = rng.uniform(0.05, 3.0);
        ring.set_window(window);
        ref.set_window(window);
      } else if (what < 18) {
        ASSERT_EQ(ring.drops_in_window(now), ref.drops_in_window(now))
            << "trial " << trial << " op " << op;
      } else {
        const TimeSec a = ring.mtd(now);
        const TimeSec b = ref.mtd(now);
        ASSERT_TRUE(a == b) << "trial " << trial << " op " << op << ": " << a
                            << " vs " << b;
      }
    }
    EXPECT_LE(ring.drops_in_window(now), max_records);
  }
}

}  // namespace
}  // namespace floc
