#include "netsim/network.h"

#include <gtest/gtest.h>

#include "netsim/drop_tail.h"

namespace floc {
namespace {

// Minimal agent that remembers what it received.
struct Collector : Agent {
  std::vector<Packet> got;
  void on_packet(Packet&& p) override { got.push_back(std::move(p)); }
};

TEST(Network, PacketCrossesLine) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Router* r = net.add_router("r", 2);
  Host* b = net.add_host("b", 3);
  net.connect(a, r, mbps(10), 0.001);
  net.connect(r, b, mbps(10), 0.001);
  net.build_routes();

  Collector sink;
  b->register_agent(7, &sink);

  Packet p;
  p.flow = 7;
  p.src = a->addr();
  p.dst = b->addr();
  p.size_bytes = 1000;
  net.next_hop(a->id(), b->addr())->send(std::move(p));
  sim.run();

  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.got[0].flow, 7u);
  // Two serialization delays (1000B at 10 Mbps = 0.8 ms each) + two
  // propagation delays of 1 ms.
  EXPECT_NEAR(sim.now(), 2 * 0.0008 + 2 * 0.001, 1e-9);
}

TEST(Network, RoutesPickShortestPath) {
  Simulator sim;
  Network net(&sim);
  // a - r1 - r2 - b  and a shortcut a - r3 - b.
  Host* a = net.add_host("a", 1);
  Router* r1 = net.add_router("r1", 2);
  Router* r2 = net.add_router("r2", 3);
  Router* r3 = net.add_router("r3", 4);
  Host* b = net.add_host("b", 5);
  net.connect(a, r1, mbps(10), 0.001);
  net.connect(r1, r2, mbps(10), 0.001);
  net.connect(r2, b, mbps(10), 0.001);
  net.connect(a, r3, mbps(10), 0.001);
  net.connect(r3, b, mbps(10), 0.001);
  net.build_routes();

  // a's next hop to b must be the 2-hop branch via r3.
  Link* hop = net.next_hop(a->id(), b->addr());
  ASSERT_NE(hop, nullptr);
  EXPECT_EQ(hop->to(), r3);
}

TEST(Network, UnroutableReturnsNull) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);  // never connected
  net.connect(a, net.add_router("r", 3), mbps(1), 0.001);
  net.build_routes();
  EXPECT_EQ(net.next_hop(a->id(), b->addr()), nullptr);
}

TEST(Network, NextHopRejectsAddressesOutsideTheHostRange) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Router* r = net.add_router("r", 2);
  Host* b = net.add_host("b", 3);
  net.connect(a, r, mbps(10), 0.001);
  net.connect(r, b, mbps(10), 0.001);
  net.build_routes();
  ASSERT_NE(net.next_hop(r->id(), b->addr()), nullptr);
  // Address 0 is no host; neither is anything past the last one.
  for (const Node* n : {static_cast<const Node*>(a), static_cast<const Node*>(r),
                        static_cast<const Node*>(b)}) {
    EXPECT_EQ(net.next_hop(n->id(), 0), nullptr);
    EXPECT_EQ(net.next_hop(n->id(), b->addr() + 1), nullptr);
    EXPECT_EQ(net.next_hop(n->id(), 0xffffffffu), nullptr);
  }
}

TEST(Network, HostByAddr) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  EXPECT_EQ(net.host_by_addr(a->addr()), a);
  EXPECT_EQ(net.host_by_addr(999), nullptr);
}

TEST(Link, QueueBuildsUnderOverload) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);
  auto d = net.connect(a, b, kbps(80), 0.0,
                       std::make_unique<DropTailQueue>(5));
  net.build_routes();
  Collector sink;
  b->set_default_agent(&sink);

  // 20 packets of 1000 B at a link that serializes one per 0.1 s, queue 5.
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.flow = 1;
    p.dst = b->addr();
    p.size_bytes = 1000;
    d.ab->send(std::move(p));
  }
  sim.run();
  // 1 in flight + 5 queued survive; the rest drop.
  EXPECT_EQ(sink.got.size(), 6u);
  EXPECT_EQ(d.ab->queue().drops(), 14u);
}

TEST(Link, UtilizationAccounting) {
  Simulator sim;
  Network net(&sim);
  Host* a = net.add_host("a", 1);
  Host* b = net.add_host("b", 2);
  auto d = net.connect(a, b, mbps(8), 0.0);
  net.build_routes();
  Collector sink;
  b->set_default_agent(&sink);
  Packet p;
  p.dst = b->addr();
  p.size_bytes = 1000;  // 1 ms at 8 Mbps
  d.ab->send(std::move(p));
  sim.run();
  EXPECT_EQ(d.ab->bytes_sent(), 1000u);
  EXPECT_NEAR(d.ab->utilization(0.0, 0.001), 1.0, 1e-9);
}

}  // namespace
}  // namespace floc
