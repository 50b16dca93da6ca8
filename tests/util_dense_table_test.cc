// DenseTable against an std::unordered_map reference: seeded random
// insert / find / erase / erase-while-iterating sequences, with the key set,
// every record and the size compared after each step.
#include "util/dense_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/seed.h"

namespace floc {
namespace {

// A value with heap storage and a reset(), like FlowRecord: a reused slot
// must read as fresh.
struct Rec {
  std::uint64_t stamp = 0;
  std::vector<std::uint64_t> log;
  void reset() {
    stamp = 0;
    log.clear();
  }
  bool operator==(const Rec&) const = default;
};

using Table = DenseTable<std::uint64_t, Rec>;
using Ref = std::unordered_map<std::uint64_t, Rec>;

void expect_same(const Table& t, const Ref& ref, const char* what, int step) {
  ASSERT_EQ(t.size(), ref.size()) << what << " step " << step;
  ASSERT_EQ(t.empty(), ref.empty());
  std::vector<std::uint64_t> got, want;
  for (const auto& [k, v] : t) got.push_back(k);
  for (const auto& [k, v] : ref) want.push_back(k);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got, want) << what << " step " << step;
  for (const auto& [k, v] : ref) {
    const auto it = t.find(k);
    ASSERT_NE(it, t.end()) << what << " step " << step << " key " << k;
    ASSERT_EQ(it->first, k);
    ASSERT_TRUE(it->second == v) << what << " step " << step << " key " << k;
  }
}

// Erases `key` if present; returns how many records went, as
// std::unordered_map::erase(key) does.
std::size_t erase_key(Table& t, std::uint64_t key) {
  const auto it = t.find(key);
  if (it == t.end()) return 0;
  t.erase(it);
  return 1;
}

// Keys from a pool of `pool` values (0 = any 64-bit value). Small pools make
// finds, re-inserts and erasures of present keys common; the index then
// grows and shrinks its load through every probe-run shape.
void run_sequence(std::uint64_t seed, std::uint64_t pool, int steps) {
  Rng rng(seed);
  Table t;
  Ref ref;
  std::uint64_t stamp = 0;
  const auto key = [&] {
    return pool == 0 ? rng.next_u64() : mix64(rng.uniform_int(pool));
  };
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t what = rng.uniform_int(100);
    if (what < 45) {
      const std::uint64_t k = key();
      const auto [it, inserted] = t.try_emplace(k);
      const auto [rit, rinserted] = ref.try_emplace(k);
      ASSERT_EQ(inserted, rinserted) << "step " << step;
      ASSERT_TRUE(it->second == rit->second) << "fresh or kept, step " << step;
      it->second.stamp = rit->second.stamp = ++stamp;
      it->second.log.push_back(stamp);
      rit->second.log.push_back(stamp);
    } else if (what < 75) {
      const std::uint64_t k = key();
      ASSERT_EQ(erase_key(t, k), ref.erase(k)) << "step " << step;
    } else if (what < 80) {
      // Erase a random third while iterating; every record is visited once.
      const std::size_t before = t.size();
      std::vector<std::uint64_t> visited;
      for (auto it = t.begin(); it != t.end();) {
        visited.push_back(it->first);
        if (rng.chance(1.0 / 3.0)) {
          ref.erase(it->first);
          it = t.erase(it);
        } else {
          ++it;
        }
      }
      ASSERT_EQ(visited.size(), before) << "step " << step;
      std::sort(visited.begin(), visited.end());
      ASSERT_EQ(std::adjacent_find(visited.begin(), visited.end()),
                visited.end())
          << "a record was visited twice, step " << step;
    } else {
      const std::uint64_t k = key();
      const auto it = t.find(k);
      const auto rit = ref.find(k);
      ASSERT_EQ(it == t.end(), rit == ref.end()) << "step " << step;
      if (it != t.end()) {
        it->second.log.push_back(++stamp);
        rit->second.log.push_back(stamp);
      }
    }
    expect_same(t, ref, "random", step);
    if (::testing::Test::HasFatalFailure()) return;  // the table is corrupt
  }
}

TEST(DenseTable, MatchesUnorderedMapUnderRandomOperations) {
  const std::uint64_t pools[] = {4, 16, 64, 300, 2000, 0};
  for (std::uint64_t s = 1; s <= 6; ++s) {
    for (const std::uint64_t pool : pools) {
      SCOPED_TRACE(testing::Message() << "seed " << s << " pool " << pool);
      run_sequence(derive_seed(s, pool), pool, 3000);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DenseTable, GrowsFromEmptyToThousandsAndBack) {
  Table t;
  Ref ref;
  for (std::uint64_t k = 0; k < 5000; ++k) {
    t.try_emplace(k).first->second.stamp = k;  // sequential keys
    ref[k].stamp = k;
  }
  expect_same(t, ref, "filled", 0);
  for (std::uint64_t k = 0; k < 5000; k += 2) {
    erase_key(t, k);
    ref.erase(k);
  }
  expect_same(t, ref, "halved", 1);
  for (auto it = t.begin(); it != t.end();) it = t.erase(it);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(1), t.end());
}

TEST(DenseTable, ProbeRunsWrapAroundTheIndexEnd) {
  // Up to four keys keep the index at its first size, 8 positions. Keys whose
  // home is the last position (mix64(k) & 7 == 7) form a run that wraps to
  // the front; erasing from it needs the backward shift to cross the wrap.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < 4; ++k) {
    if ((mix64(k) & 7) == 7) keys.push_back(k);
  }
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    Table t;
    Ref ref;
    for (const std::uint64_t k : keys) {
      t.try_emplace(k).first->second.stamp = k + 1;
      ref[k].stamp = k + 1;
    }
    expect_same(t, ref, "wrapped run", static_cast<int>(victim));
    ASSERT_EQ(erase_key(t, keys[victim]), 1u);
    ref.erase(keys[victim]);
    expect_same(t, ref, "after erase", static_cast<int>(victim));
    // Re-insert: lands back in the run and reads fresh.
    const auto [it, inserted] = t.try_emplace(keys[victim]);
    EXPECT_TRUE(inserted);
    EXPECT_TRUE(it->second == Rec{});
  }
}

TEST(DenseTable, IteratesInInsertionOrderAndErasesByMovingTheLast) {
  DenseTable<std::uint32_t, double> t;  // a value without reset(): V{}
  for (std::uint32_t k : {50u, 10u, 40u, 20u, 30u}) {
    t.try_emplace(k).first->second = k;
  }
  std::vector<std::uint32_t> order;
  for (const auto& [k, v] : t) order.push_back(k);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{50, 10, 40, 20, 30}));

  t.erase(t.find(10u));  // the last record (30) moves into the hole
  order.clear();
  for (const auto& [k, v] : t) order.push_back(k);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{50, 30, 40, 20}));

  // A new key reuses the erased slot and reads as V{}.
  const auto [it, inserted] = t.try_emplace(77u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, 0.0);
  EXPECT_EQ(t.find(30u)->second, 30.0);
}

TEST(DenseTable, ReusedSlotKeepsValueStorage) {
  Table t;
  auto& first = t.try_emplace(1).first->second;
  first.log.assign(100, 7);
  const std::size_t cap = first.log.capacity();
  t.erase(t.find(1));
  const auto [it, inserted] = t.try_emplace(2);
  ASSERT_TRUE(inserted);
  EXPECT_TRUE(it->second.log.empty());
  EXPECT_EQ(it->second.log.capacity(), cap);  // reset(), not a fresh Rec
}

}  // namespace
}  // namespace floc
