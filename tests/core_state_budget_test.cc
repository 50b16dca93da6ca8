// StateBudgetConfig / enforce_budget / EvictionSketch: capacity semantics,
// per-policy victim selection as a pure function of table contents
// (iteration-order independence), enum round-trips, and sketch
// mark/test/rotate behavior.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/state_budget.h"

namespace floc {
namespace {

struct Entry {
  double score = 0.0;
  std::uint64_t recency = 0;
};

using Map = std::unordered_map<std::uint64_t, Entry>;

std::vector<std::uint64_t> evict(Map& map, const StateBudgetConfig& budget,
                                 std::uint64_t salt = 0) {
  std::vector<std::uint64_t> victims;
  EvictScratch scratch;
  enforce_budget(
      map, budget, salt, scratch,
      [](std::uint64_t, const Entry& e) {
        return EvictRank{e.score, e.recency};
      },
      [&](std::uint64_t key, const Entry&) { victims.push_back(key); });
  return victims;
}

TEST(StateBudget, DisabledBudgetNeverEvicts) {
  Map map;
  for (std::uint64_t k = 0; k < 1000; ++k) map[k] = Entry{0.0, k};
  StateBudgetConfig off;  // capacity 0 = unbounded
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(evict(map, off).empty());
  EXPECT_EQ(map.size(), 1000u);
}

TEST(StateBudget, EnforcesOnlyAtCapacityAndShrinksToTarget) {
  StateBudgetConfig b;
  b.capacity = 100;
  b.evict_to = 0.9;
  EXPECT_EQ(b.shrink_target(), 90u);

  Map map;
  for (std::uint64_t k = 0; k < 99; ++k) map[k] = Entry{0.0, k};
  EXPECT_TRUE(evict(map, b).empty()) << "below capacity: no eviction";

  map[99] = Entry{0.0, 99};  // now AT capacity
  const auto victims = evict(map, b);
  EXPECT_EQ(victims.size(), 10u);
  EXPECT_EQ(map.size(), 90u);
  // Post-insert invariant: caller inserts one entry after enforcement, so
  // the table never exceeds capacity at any observable point.
  EXPECT_LE(map.size() + 1, b.capacity);
}

TEST(StateBudget, ShrinkTargetAlwaysBelowCapacity) {
  StateBudgetConfig b;
  b.capacity = 10;
  b.evict_to = 1.0;  // degenerate: target must still leave room to insert
  EXPECT_LT(b.shrink_target(), b.capacity);
  b.capacity = 1;
  b.evict_to = 0.9;
  EXPECT_EQ(b.shrink_target(), 0u);
}

TEST(StateBudget, LruEvictsOldestTouches) {
  StateBudgetConfig b;
  b.capacity = 10;
  b.evict_to = 0.5;
  Map map;
  for (std::uint64_t k = 0; k < 10; ++k) map[k] = Entry{0.0, 100 + k};
  auto victims = evict(map, b);
  ASSERT_EQ(victims.size(), 5u);
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(victims, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  // Victim callback order is deterministic: oldest recency first.
}

TEST(StateBudget, LowestOffenseFirstPinsHighScores) {
  StateBudgetConfig b;
  b.capacity = 10;
  b.evict_to = 0.5;
  b.policy = EvictionPolicy::kLowestOffenseFirst;
  Map map;
  // Keys 0-4 are heavy offenders (high score), 5-9 innocents — recency says
  // the opposite (offenders are stale), but score is the primary key.
  for (std::uint64_t k = 0; k < 5; ++k) map[k] = Entry{10.0, k};
  for (std::uint64_t k = 5; k < 10; ++k) map[k] = Entry{0.0, 100 + k};
  auto victims = evict(map, b);
  ASSERT_EQ(victims.size(), 5u);
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(victims, (std::vector<std::uint64_t>{5, 6, 7, 8, 9}))
      << "innocents evict first; offenders stay pinned";
}

TEST(StateBudget, VictimSetIndependentOfInsertionOrder) {
  StateBudgetConfig b;
  b.capacity = 64;
  b.evict_to = 0.75;
  for (const EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kLowestOffenseFirst,
        EvictionPolicy::kProbabilisticDecay}) {
    b.policy = policy;
    Map forward, backward;
    for (std::uint64_t k = 0; k < 64; ++k) {
      forward[k] = Entry{static_cast<double>(k % 7), 1000 + k};
    }
    for (std::uint64_t k = 64; k-- > 0;) {
      backward[k] = Entry{static_cast<double>(k % 7), 1000 + k};
    }
    auto v1 = evict(forward, b, /*salt=*/42);
    auto v2 = evict(backward, b, /*salt=*/42);
    // Same contents => same victim set AND same callback order, regardless
    // of hash-table history. This is what makes bounded runs byte-identical
    // at --jobs 1 vs N.
    EXPECT_EQ(v1, v2) << "policy " << to_string(policy);
  }
}

TEST(StateBudget, DecaySaltVariesVictims) {
  StateBudgetConfig b;
  b.capacity = 64;
  b.evict_to = 0.9;
  b.policy = EvictionPolicy::kProbabilisticDecay;
  Map m1, m2;
  for (std::uint64_t k = 0; k < 64; ++k) {
    m1[k] = Entry{0.0, k};
    m2[k] = Entry{0.0, k};
  }
  const auto v1 = evict(m1, b, /*salt=*/1);
  const auto v2 = evict(m2, b, /*salt=*/2);
  EXPECT_FALSE(v1.empty());
  // Different salts re-target different victims (overwhelmingly likely with
  // 64 keys and 6 victims); repeated pressure cannot stalk fixed survivors.
  EXPECT_NE(v1, v2);
}

TEST(StateBudget, PolicyNamesRoundTrip) {
  for (std::size_t i = 0; i < kEvictionPolicyCount; ++i) {
    const EvictionPolicy p = static_cast<EvictionPolicy>(i);
    const std::string name = to_string(p);
    EXPECT_NE(name, "?");
    EvictionPolicy back;
    ASSERT_TRUE(from_string(name, &back)) << name;
    EXPECT_EQ(back, p);
  }
  EvictionPolicy out;
  EXPECT_FALSE(from_string("bogus", &out));
}

TEST(EvictionSketch, MarkTestRotateLifecycle) {
  EvictionSketch sk(/*seed=*/7);
  EXPECT_FALSE(sk.test(123));
  sk.mark(123);
  EXPECT_TRUE(sk.test(123));
  EXPECT_FALSE(sk.test(124));
  EXPECT_EQ(sk.marks(), 1u);

  // A mark survives ONE rotation (it moved to the stale bank)...
  sk.rotate();
  EXPECT_TRUE(sk.test(123));
  // ...but not two (the stale bank is retired).
  sk.rotate();
  EXPECT_FALSE(sk.test(123));

  sk.mark(55);
  sk.clear();
  EXPECT_FALSE(sk.test(55));
}

TEST(EvictionSketch, LowFalsePositiveRateAtRealisticLoad) {
  EvictionSketch sk(/*seed=*/3);
  for (std::uint64_t k = 0; k < 500; ++k) sk.mark(k * 2654435761ULL);
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (sk.test(0xABCDEF00ULL + static_cast<std::uint64_t>(i))) ++fp;
  }
  // 500 marks into 2x65536 bits, 2 probes: expected FP rate well under 1%.
  EXPECT_LT(fp, probes / 100) << fp << " false positives";
}

}  // namespace
}  // namespace floc
