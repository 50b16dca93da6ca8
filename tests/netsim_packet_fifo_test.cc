// PacketFifo and its per-thread slab: FIFO order, tail shed, clear, byte
// totals, iteration, and slot recycling across queues. Lives in the
// floc_fastpath_test binary so the recycling tests can also assert, with the
// counting allocator, that reused slots never touch the heap.
#include "netsim/packet_fifo.h"

#include <vector>

#include <gtest/gtest.h>

#include "telemetry/alloc_counter.h"

namespace floc {
namespace {

using telemetry::ScopedAllocCount;

Packet pkt(std::uint64_t seq, int bytes = 1500) {
  Packet p;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

std::vector<std::uint64_t> seqs(const PacketFifo& q) {
  std::vector<std::uint64_t> out;
  for (const Packet& p : q) out.push_back(p.seq);
  return out;
}

TEST(PacketFifo, StartsEmpty) {
  PacketFifo q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(q.begin(), q.end());
}

TEST(PacketFifo, FifoOrderAndByteTotals) {
  PacketFifo q;
  for (std::uint64_t i = 0; i < 5; ++i) {
    q.push_back(pkt(i, 100 + static_cast<int>(i)));
  }
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.bytes(), 100u + 101 + 102 + 103 + 104);
  EXPECT_EQ(q.front().seq, 0u);
  EXPECT_EQ(q.back().seq, 4u);
  EXPECT_EQ(seqs(q), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));

  q.pop_front();
  EXPECT_EQ(q.front().seq, 1u);
  EXPECT_EQ(q.bytes(), 101u + 102 + 103 + 104);
  while (!q.empty()) q.pop_front();
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(q.begin(), q.end());
}

TEST(PacketFifo, WraparoundKeepsOrderOverManyCycles) {
  // Push/pop far past the slab's chunk size with a standing backlog, so the
  // queue's slots cycle through recycled (non-contiguous) memory.
  PacketFifo q;
  constexpr std::uint64_t kBacklog = 3 * PacketSlab::kChunkSlots / 2;
  std::uint64_t next_in = 0, next_out = 0;
  for (; next_in < kBacklog; ++next_in) q.push_back(pkt(next_in));
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(q.front().seq, next_out++);
    q.pop_front();
    q.push_back(pkt(next_in++));
    ASSERT_EQ(q.back().seq, next_in - 1);
  }
  EXPECT_EQ(q.size(), kBacklog);
  EXPECT_EQ(q.bytes(), kBacklog * 1500);
  std::uint64_t expect = next_out;
  for (const Packet& p : q) EXPECT_EQ(p.seq, expect++);
}

TEST(PacketFifo, TailShedRemovesNewest) {
  PacketFifo q;
  for (std::uint64_t i = 0; i < 4; ++i) q.push_back(pkt(i, 10));
  q.pop_back();
  EXPECT_EQ(q.back().seq, 2u);
  EXPECT_EQ(q.bytes(), 30u);
  EXPECT_EQ(seqs(q), (std::vector<std::uint64_t>{0, 1, 2}));
  q.pop_back();
  q.pop_back();
  EXPECT_EQ(q.front().seq, 0u);
  EXPECT_EQ(q.back().seq, 0u);
  q.pop_back();
  EXPECT_TRUE(q.empty());
  // Usable again after shedding to empty from the tail.
  q.push_back(pkt(9, 10));
  EXPECT_EQ(q.front().seq, 9u);
  EXPECT_EQ(seqs(q), (std::vector<std::uint64_t>{9}));
}

TEST(PacketFifo, ClearReturnsEverySlot) {
  PacketSlab& slab = PacketSlab::local();
  PacketFifo q;
  for (std::uint64_t i = 0; i < 100; ++i) q.push_back(pkt(i));
  const std::size_t free_full = slab.free_slots();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(slab.free_slots(), free_full + 100);
  q.clear();  // clearing an empty queue is a no-op
  EXPECT_EQ(slab.free_slots(), free_full + 100);
  q.push_back(pkt(7));
  EXPECT_EQ(seqs(q), (std::vector<std::uint64_t>{7}));
}

TEST(PacketFifo, DestructionReturnsSlots) {
  PacketSlab& slab = PacketSlab::local();
  const std::size_t free_before = slab.free_slots();
  const std::size_t cap_before = slab.capacity();
  {
    PacketFifo q;
    for (std::uint64_t i = 0; i < 200; ++i) q.push_back(pkt(i));
  }
  // The slab grew to hold 200 packets and kept every slot afterwards.
  EXPECT_GE(slab.capacity(), 200u);
  EXPECT_EQ(slab.free_slots(), free_before + (slab.capacity() - cap_before));
}

TEST(PacketFifo, SlotsAreReusedAcrossQueuesWithoutAllocating) {
  PacketSlab& slab = PacketSlab::local();
  {
    PacketFifo warm;
    for (std::uint64_t i = 0; i < 300; ++i) warm.push_back(pkt(i));
  }
  const std::size_t cap = slab.capacity();

  // Two queues trading slots: whatever one frees, the other reuses. The
  // combined backlog never exceeds the warm high-water mark, so the slab
  // stays put and nothing allocates.
  PacketFifo a, b;
  ScopedAllocCount guard;
  for (std::uint64_t i = 0; i < 250; ++i) a.push_back(pkt(i));
  for (int round = 0; round < 1000; ++round) {
    b.push_back(pkt(a.front().seq));
    a.pop_front();
    a.push_back(pkt(b.front().seq));
    b.pop_front();
  }
  while (!a.empty()) {
    b.push_back(pkt(a.front().seq));
    a.pop_front();
  }
  EXPECT_EQ(guard.allocs(), 0u);
  EXPECT_EQ(guard.frees(), 0u);
  EXPECT_EQ(slab.capacity(), cap);
  EXPECT_EQ(b.size(), 250u);
  EXPECT_EQ(b.bytes(), 250u * 1500);
}

TEST(PacketFifo, SlabGrowsOnlyAtANewHighWaterMark) {
  PacketSlab& slab = PacketSlab::local();
  PacketFifo q;
  for (std::uint64_t i = 0; i < 500; ++i) q.push_back(pkt(i));
  const std::size_t cap = slab.capacity();
  q.clear();
  ScopedAllocCount guard;
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t i = 0; i < 500; ++i) q.push_back(pkt(i));
    q.clear();
  }
  EXPECT_EQ(guard.allocs(), 0u);
  EXPECT_EQ(slab.capacity(), cap);
}

}  // namespace
}  // namespace floc
