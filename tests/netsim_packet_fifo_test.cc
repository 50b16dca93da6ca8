// PacketFifo, PacketRef and the per-thread slab: FIFO order, tail shed,
// clear, byte totals, iteration, slot recycling across queues, and slot
// lifetime (one slot per packet from send to sink; every slot back in the
// slab once the worlds that used it are gone). Lives in the
// floc_fastpath_test binary so the recycling tests can also assert, with the
// counting allocator, that reused slots never touch the heap.
#include "netsim/packet_fifo.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "core/floc_queue.h"
#include "netsim/network.h"
#include "telemetry/alloc_counter.h"
#include "topology/tree_scenario.h"

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

TEST(PacketRef, MovedFromRefIsEmptyAndReleasesNothing) {
  PacketSlab& slab = PacketSlab::local();
  PacketRef a = pkt(5);
  const std::size_t free_held = slab.free_slots();
  PacketRef b = std::move(a);
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->seq, 5u);
  a.reset();  // empty: nothing to release
  EXPECT_EQ(slab.free_slots(), free_held);

  // Move assignment releases the target's old slot and empties the source.
  PacketRef c = pkt(6);
  EXPECT_EQ(slab.free_slots(), free_held - 1);
  c = std::move(b);
  EXPECT_FALSE(b);
  EXPECT_EQ(c->seq, 5u);
  EXPECT_EQ(slab.free_slots(), free_held);

  { PacketRef d = std::move(c); }  // the last owner dies: the slot returns
  EXPECT_FALSE(c);
  EXPECT_EQ(slab.free_slots(), free_held + 1);
}

TEST(PacketRef, FifoHandsOnTheSameSlot) {
  PacketFifo q;
  PacketRef r = pkt(3, 700);
  const Packet* slot = &*r;
  q.push_back(std::move(r));
  EXPECT_FALSE(r);
  EXPECT_EQ(&q.front(), slot);
  EXPECT_EQ(q.bytes(), 700u);
  PacketRef out = q.pop_front();
  EXPECT_EQ(&*out, slot);
  EXPECT_EQ(out->seq, 3u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PacketRef, ReleasedSlotIsPoisoned) {
  PacketRef r = pkt(1);
  const Packet* slot = &*r;
  EXPECT_FALSE(__asan_address_is_poisoned(slot));
  r.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(slot));
  EXPECT_TRUE(__asan_address_is_poisoned(&slot->sent_time));
  PacketRef again = pkt(2);  // the free list is LIFO: the same slot
  ASSERT_EQ(&*again, slot);
  EXPECT_FALSE(__asan_address_is_poisoned(&slot->sent_time));
}
#endif

struct AddressSink : Agent {
  const Packet* at = nullptr;
  std::uint64_t seq = 0;
  void on_packet(Packet&& p) override {
    at = &p;
    seq = p.seq;
  }
};

TEST(PacketSlotLifetime, OnePacketKeepsOneSlotAcrossEveryHop) {
  PacketSlab& slab = PacketSlab::local();
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Router* r1 = net.add_router("r1", 2);
  Router* r2 = net.add_router("r2", 3);
  Host* b = net.add_host("b", 4);
  Link* const hops[] = {net.connect(a, r1, mbps(10), 0.001).ab,
                        net.connect(r1, r2, mbps(10), 0.001).ab,
                        net.connect(r2, b, mbps(10), 0.001).ab};
  net.build_routes();
  // Each hop's tamper hook records the address of the packet it starts to
  // serialize.
  std::vector<const Packet*> seen;
  for (Link* l : hops) l->set_tamper([&seen](Packet& q) { seen.push_back(&q); });
  AddressSink sink;
  b->set_default_agent(&sink);

  Packet p = pkt(42, 1000);
  p.dst = b->addr();
  ASSERT_EQ(slab.free_slots(), slab.capacity());
  net.next_hop(a->id(), b->addr())->send(p);
  sim.run();

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], seen[0]);
  EXPECT_EQ(seen[2], seen[0]);
  EXPECT_EQ(sink.at, seen[0]);  // the agent reads the packet in place
  EXPECT_EQ(sink.seq, 42u);
  // The sink consumed the packet, so its slot is back on the free list.
  EXPECT_EQ(slab.free_slots(), slab.capacity());
}

// The Fig. 5 tree at the scenario benches' quick scale, cut short while
// queues and wires still hold packets.
TreeScenarioConfig short_floc_cbr() {
  TreeScenarioConfig cfg;
  cfg.scale = 0.08;
  cfg.legit_start_spread = 2.0;
  cfg.attack_start = 2.0;
  cfg.duration = 5.0;
  cfg.measure_start = 3.0;
  cfg.measure_end = 5.0;
  cfg.seed = 11;
  cfg.scheme = DefenseScheme::kFloc;
  cfg.attack = AttackType::kCbr;
  return cfg;
}

TEST(PacketSlotLifetime, NoDropPathLeaksASlot) {
  PacketSlab& slab = PacketSlab::local();
  ASSERT_EQ(slab.free_slots(), slab.capacity());
  {
    TreeScenario s(short_floc_cbr());
    s.run();
    EXPECT_GT(s.bottleneck_queue().drops(), 0u);
    EXPECT_LT(slab.free_slots(), slab.capacity());  // packets still in flight
  }
  EXPECT_EQ(slab.free_slots(), slab.capacity());

  // Drain a downed target link, then reboot FLoc with a flushed queue.
  {
    TreeScenario s(short_floc_cbr());
    Link* target = s.target_link();
    FlocQueue* floc = s.floc_queue();
    ASSERT_NE(floc, nullptr);
    std::size_t flushed = 0;
    s.sim().schedule_at(3.0, [target] {
      target->set_up(false, Link::DownQueuePolicy::kDrain);
    });
    s.sim().schedule_at(3.2, [target] { target->set_up(true); });
    s.sim().schedule_at(4.25, [&s, floc, &flushed] {
      flushed = floc->packet_count();
      floc->reboot(s.sim().now(), /*preserve_queue=*/false);
    });
    s.run();
    EXPECT_GT(target->down_drops(), 0u);
    EXPECT_GT(flushed, 0u);
    EXPECT_EQ(floc->reboots(), 1u);
  }
  EXPECT_EQ(slab.free_slots(), slab.capacity());
}

}  // namespace
}  // namespace floc
