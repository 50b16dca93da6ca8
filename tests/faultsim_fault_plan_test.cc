#include "faultsim/fault_plan.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "netsim/drop_tail.h"
#include "netsim/network.h"

namespace floc {
namespace {

struct Collector : Agent {
  std::vector<Packet> got;
  void on_packet(Packet&& p) override { got.push_back(std::move(p)); }
};

Packet data_to(HostAddr dst, int bytes = 1000) {
  Packet p;
  p.flow = 1;
  p.dst = dst;
  p.type = PacketType::kData;
  p.size_bytes = bytes;
  return p;
}

// A link flap mid-transfer must not leak packets: everything offered is
// either delivered, dropped by the queue discipline, or counted against the
// downed link — and delivery resumes once the link recovers.
TEST(FaultPlan, LinkFlapConservesPackets) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);
  // 1000 B at 80 kbps = one packet per 0.1 s, matching the offered rate.
  auto d = net.connect(a, b, kbps(80), 0.0,
                       std::make_unique<DropTailQueue>(5));
  net.build_routes();
  Collector sink;
  b->set_default_agent(&sink);

  const int offered = 30;
  for (int i = 0; i < offered; ++i) {
    sim.schedule_at(0.1 * i, [&net, a, b] {
      net.next_hop(a->id(), b->addr())->send(data_to(b->addr()));
    });
  }
  // Down at t=1.05 — mid-serialization of the packet sent at t=1.0 — and
  // back up at t=1.55. The five packets offered meanwhile are lost.
  FaultPlan plan;
  plan.add_link_flap(d.ab, 1.05, 1.55);
  plan.install(&sim);
  EXPECT_EQ(plan.event_count(), 2u);

  sim.run();

  EXPECT_TRUE(d.ab->up());
  EXPECT_EQ(d.ab->down_drops(), 5u);
  EXPECT_TRUE(d.ab->queue().empty());
  // Conservation: delivered + link-down drops + queue drops == offered.
  EXPECT_EQ(sink.got.size() + d.ab->down_drops() + d.ab->queue().drops(),
            static_cast<std::size_t>(offered));
  // The in-flight packet at failure time still delivered, and transmission
  // resumed after recovery (the t=1.6..2.9 packets all arrive).
  EXPECT_EQ(sink.got.size(), 25u);
  EXPECT_GT(sim.now(), 2.9);

  // Traced, with a drain flap at 0.35 s: the packet then serializing still
  // delivers, and each of the 16 packets discarded from the downed link's
  // buffer ends its queue span with the link-down status — none stays open.
  Simulator tsim;
  Network tnet(&tsim);
  Host* ta = tnet.add_host("a", 1);
  Host* tb = tnet.add_host("b", 2);
  auto td = tnet.connect(ta, tb, kbps(80), 0.0,
                         std::make_unique<DropTailQueue>(50));
  tnet.build_routes();
  Collector tsink;
  tb->set_default_agent(&tsink);
  telemetry::Tracer tracer;
  td.ab->set_tracer(&tracer);
  for (int i = 0; i < 20; ++i) td.ab->send(data_to(tb->addr()));
  FaultPlan tplan;
  tplan.add_link_flap(td.ab, 0.35, 0.5, Link::DownQueuePolicy::kDrain);
  tplan.install(&tsim);
  tsim.run();

  EXPECT_EQ(td.ab->down_drops(), 16u);
  EXPECT_EQ(tsink.got.size() + td.ab->down_drops(), 20u);
  EXPECT_EQ(tracer.open_count(), 0u);
  std::size_t link_down = 0;
  for (const telemetry::Span& sp : tracer.spans()) {
    if (sp.status == kSpanStatusLinkDown) {
      ++link_down;
      EXPECT_NE(sp.annot.find("drop=link-down"), std::string::npos);
    }
  }
  EXPECT_EQ(link_down, 16u);
}

TEST(FaultPlan, DrainPolicyLosesBufferedPackets) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);
  auto d = net.connect(a, b, kbps(80), 0.0,
                       std::make_unique<DropTailQueue>(10));
  net.build_routes();
  Collector sink;
  b->set_default_agent(&sink);

  // Eight packets back-to-back: one serializing, seven buffered.
  for (int i = 0; i < 8; ++i) d.ab->send(data_to(b->addr()));

  FaultPlan plan;
  plan.add_link_flap(d.ab, 0.05, 0.5, Link::DownQueuePolicy::kDrain);
  plan.install(&sim);
  // One more offered while down, one after recovery.
  sim.schedule_at(0.2, [&] { d.ab->send(data_to(b->addr())); });
  sim.schedule_at(0.6, [&] { d.ab->send(data_to(b->addr())); });
  sim.run();

  // In-flight packet delivers; the 7 buffered drain, the 1 offered while
  // down drops, the post-recovery one delivers.
  EXPECT_EQ(d.ab->down_drops(), 8u);
  EXPECT_EQ(sink.got.size(), 2u);
}

TEST(FaultPlan, CorruptionWindowFlipsCapabilityBits) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);
  auto d = net.connect(a, b, mbps(10), 0.0);
  net.build_routes();
  Collector sink;
  b->set_default_agent(&sink);

  const std::uint64_t c0 = 0x1111222233334444ULL;
  const std::uint64_t c1 = 0x5555666677778888ULL;
  auto send_capped = [&](PacketType type) {
    Packet p = data_to(b->addr());
    p.type = type;
    p.cap0 = c0;
    p.cap1 = c1;
    d.ab->send(std::move(p));
  };

  FaultPlan plan;
  plan.add_corruption_window(d.ab, 0.0, 1.0, /*per_packet_prob=*/1.0);
  plan.install(&sim);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(0.1 * i, [&] { send_capped(PacketType::kData); });
  }
  // Control traffic passes untouched even inside the window; data after the
  // window is untouched too.
  sim.schedule_at(0.6, [&] { send_capped(PacketType::kAck); });
  sim.schedule_at(1.5, [&] { send_capped(PacketType::kData); });
  sim.run();

  EXPECT_EQ(plan.corrupted_packets(), 5u);
  ASSERT_EQ(sink.got.size(), 7u);
  int corrupted = 0;
  for (const Packet& p : sink.got) {
    const bool tampered = p.cap0 != c0 || p.cap1 != c1;
    if (tampered) {
      ++corrupted;
      EXPECT_EQ(p.type, PacketType::kData);
      // Exactly one bit flipped across the two words.
      EXPECT_EQ(std::popcount(p.cap0 ^ c0) + std::popcount(p.cap1 ^ c1), 1);
    }
  }
  EXPECT_EQ(corrupted, 5);
}

TEST(FaultPlan, RecordsPlannedEventsInOrderAdded) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);
  auto d = net.connect(a, b, mbps(1), 0.0);
  net.build_routes();

  bool fired = false;
  FaultPlan plan;
  plan.add_link_flap(d.ab, 2.0, 3.0);
  plan.add_event(1.0, [&] { fired = true; }, "probe");
  ASSERT_EQ(plan.event_count(), 3u);
  EXPECT_EQ(plan.events()[0].label, "link-down");
  EXPECT_EQ(plan.events()[1].label, "link-up");
  EXPECT_EQ(plan.events()[2].label, "probe");
  EXPECT_DOUBLE_EQ(plan.events()[2].time, 1.0);

  plan.install(&sim);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(d.ab->up());
}

TEST(FaultPlan, ActivationsJournaledAtFireTime) {
  Simulator sim;
  telemetry::EventJournal journal;
  FaultPlan plan;
  plan.set_journal(&journal);
  int fired = 0;
  plan.add_event(1.0, [&] { ++fired; }, "cut-fiber");
  plan.add_event(2.5, [&] { ++fired; }, "restore-fiber");
  plan.install(&sim);
  EXPECT_EQ(journal.total(), 0u);  // journaled on activation, not install
  sim.run();

  EXPECT_EQ(fired, 2);
  const auto events = journal.of_kind(telemetry::EventKind::kFault);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0]->time, 1.0);
  EXPECT_EQ(events[0]->component, "fault-plan");
  EXPECT_EQ(events[0]->detail, "cut-fiber");
  EXPECT_DOUBLE_EQ(events[1]->time, 2.5);
  EXPECT_EQ(events[1]->detail, "restore-fiber");
}

TEST(Link, UtilizationEmptyWindowIsZero) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);
  auto d = net.connect(a, b, mbps(8), 0.0);
  net.build_routes();
  Collector sink;
  b->set_default_agent(&sink);
  d.ab->send(data_to(b->addr()));
  sim.run();
  // Zero-width and inverted windows must not divide by zero.
  EXPECT_DOUBLE_EQ(d.ab->utilization(0.5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.ab->utilization(1.0, 0.5), 0.0);
}

}  // namespace
}  // namespace floc
