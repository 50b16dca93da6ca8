// ReorderWindow (TcpSink's per-flow receive state) against a std::set
// oracle: the sink's previous out-of-order buffer. Random arrival orders
// with duplicates, late fills and permanent holes must produce the same
// delivered/duplicate verdicts and the same cumulative ACK after every
// segment, while the bitmap never spans more than the buffered range.
#include "transport/tcp_sink.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace floc {
namespace {

// The std::set receive buffer the bitmap replaced.
class SetOracle {
 public:
  bool accept(std::uint64_t seq) {
    if (seq < next_expected_ || out_of_order_.count(seq)) return false;
    if (seq == next_expected_) {
      ++next_expected_;
      auto it = out_of_order_.begin();
      while (it != out_of_order_.end() && *it == next_expected_) {
        ++next_expected_;
        it = out_of_order_.erase(it);
      }
    } else {
      out_of_order_.insert(seq);
    }
    return true;
  }
  std::uint64_t next_expected() const { return next_expected_; }
  std::uint64_t max_buffered() const {
    return out_of_order_.empty() ? next_expected_ : *out_of_order_.rbegin();
  }

 private:
  std::uint64_t next_expected_ = 0;
  std::set<std::uint64_t> out_of_order_;
};

void expect_lockstep(const std::vector<std::uint64_t>& arrivals) {
  ReorderWindow win;
  SetOracle oracle;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::uint64_t seq = arrivals[i];
    ASSERT_EQ(win.accept(seq), oracle.accept(seq))
        << "arrival " << i << " seq " << seq;
    ASSERT_EQ(win.next_expected(), oracle.next_expected())
        << "ack after arrival " << i;
    const std::uint64_t span = oracle.max_buffered() - oracle.next_expected();
    ASSERT_LE(win.words(), span / 64 + 1) << "after arrival " << i;
  }
}

TEST(ReorderWindow, InOrderDeliveryKeepsNoBitmap) {
  ReorderWindow win;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    EXPECT_TRUE(win.accept(s));
    EXPECT_EQ(win.words(), 0u);
  }
  EXPECT_EQ(win.next_expected(), 1000u);
  EXPECT_FALSE(win.accept(999));
}

TEST(ReorderWindow, PermanentHoleCostsOneBitPerSegment) {
  // A flow that never retransmits (CBR, shrew): seq 0 is lost for good, so
  // next_expected freezes and every later segment is buffered.
  ReorderWindow win;
  for (std::uint64_t s = 1; s <= 6400; ++s) ASSERT_TRUE(win.accept(s));
  EXPECT_EQ(win.next_expected(), 0u);
  EXPECT_EQ(win.words(), 101u);  // bits 1..6400
  EXPECT_FALSE(win.accept(6400));
  // The late fill releases the whole run at once and empties the bitmap.
  EXPECT_TRUE(win.accept(0));
  EXPECT_EQ(win.next_expected(), 6401u);
  EXPECT_EQ(win.words(), 0u);
}

TEST(ReorderWindow, MatchesSetOracleOnRandomArrivals) {
  Rng rng(20100621);
  for (int trial = 0; trial < 300; ++trial) {
    // Segments 0..n-1, some lost for good, shuffled locally (bounded
    // displacement like a real reordering path) with duplicates mixed in.
    const std::uint64_t n = 50 + rng.uniform_int(1500);
    const double loss = trial % 3 == 0 ? 0.0 : 0.1 * rng.uniform();
    const std::uint64_t reach = 1 + rng.uniform_int(trial % 2 ? 8 : 300);
    std::vector<std::uint64_t> arrivals;
    for (std::uint64_t s = 0; s < n; ++s) {
      if (!rng.chance(loss)) arrivals.push_back(s);
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const std::size_t j = std::min(
          arrivals.size() - 1,
          i + static_cast<std::size_t>(rng.uniform_int(reach)));
      std::swap(arrivals[i], arrivals[j]);
    }
    const std::size_t dups = static_cast<std::size_t>(rng.uniform_int(n / 4 + 1));
    for (std::size_t d = 0; d < dups && !arrivals.empty(); ++d) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform_int(arrivals.size()));
      const std::uint64_t seq = arrivals[static_cast<std::size_t>(
          rng.uniform_int(arrivals.size()))];
      arrivals.insert(arrivals.begin() + static_cast<std::ptrdiff_t>(at), seq);
    }
    // Late fills: some of the lost segments arrive at the very end.
    for (std::uint64_t s = 0; s < n; ++s) {
      if (rng.chance(0.3)) arrivals.push_back(s);
    }
    SCOPED_TRACE(trial);
    expect_lockstep(arrivals);
  }
}

TEST(ReorderWindow, MatchesSetOracleAcrossWordBoundaries) {
  // Holes placed exactly at, just before and just after 64-bit word
  // boundaries, filled in reverse order so every shift width occurs.
  for (const std::uint64_t hole : {63u, 64u, 65u, 127u, 128u, 200u}) {
    std::vector<std::uint64_t> arrivals;
    for (std::uint64_t s = 0; s < 400; ++s) {
      if (s % hole != 0 || s == 0) arrivals.push_back(s);
    }
    for (std::uint64_t s = 400 / hole * hole; s >= hole; s -= hole) {
      arrivals.push_back(s);
    }
    SCOPED_TRACE(hole);
    expect_lockstep(arrivals);
  }
}

}  // namespace
}  // namespace floc
