// NewReno recovery behaviour: multiple losses in one window are repaired by
// partial-ACK retransmissions without waiting for timeouts.
#include <gtest/gtest.h>

#include <set>

#include "netsim/drop_tail.h"
#include "netsim/network.h"
#include "transport/flow_monitor.h"
#include "transport/tcp_sink.h"
#include "transport/tcp_source.h"

namespace floc {
namespace {

// A queue that deterministically drops a chosen set of sequence numbers the
// first time they pass (loss injection).
class LossInjectQueue : public QueueDisc {
 public:
  LossInjectQueue(std::size_t capacity, std::set<std::uint64_t> losses)
      : capacity_(capacity), to_drop_(std::move(losses)) {}

  bool enqueue(PacketRef ref, TimeSec now) override {
    const Packet& p = *ref;
    if (p.type == PacketType::kData) {
      auto it = to_drop_.find(p.seq);
      if (it != to_drop_.end()) {
        to_drop_.erase(it);
        note_drop(p, DropReason::kRandomEarly, now);
        return false;
      }
    }
    if (q_.size() >= capacity_) {
      note_drop(p, DropReason::kQueueFull, now);
      return false;
    }
    q_.push_back(std::move(ref));
    note_admit();
    return true;
  }
  PacketRef dequeue(TimeSec) override {
    if (q_.empty()) return {};
    return q_.pop_front();
  }
  bool empty() const override { return q_.empty(); }
  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return q_.bytes(); }

 private:
  std::size_t capacity_;
  std::set<std::uint64_t> to_drop_;
  PacketFifo q_;
};

struct World {
  Simulator sim;
  Network net{&sim};
  Host* client;
  Host* server;
  FlowMonitor monitor;
  std::unique_ptr<TcpSink> sink;

  explicit World(std::set<std::uint64_t> losses) {
    client = net.add_host("c", 1);
    Router* r = net.add_router("r", 2);
    server = net.add_host("s", 3);
    net.connect(client, r, mbps(50), 0.002);
    net.connect(r, server, mbps(10), 0.005,
                std::make_unique<LossInjectQueue>(200, std::move(losses)));
    net.build_routes();
    sink = std::make_unique<TcpSink>(&sim, server, &monitor);
  }
};

TEST(NewReno, MultipleLossesRepairedWithoutTimeout) {
  // Drop three segments of the same window; NewReno repairs via one fast
  // retransmit plus partial-ACK retransmissions — no RTO needed.
  World w({20, 21, 22});
  TcpSourceConfig cfg;
  cfg.flow = 1;
  cfg.dst = w.server->addr();
  cfg.total_packets = 200;
  TcpSource src(&w.sim, w.client, cfg);
  src.start_at(0.0);
  w.sim.run_until(30.0);
  EXPECT_TRUE(src.done());
  EXPECT_EQ(w.sink->delivered_packets(), 200u);
  EXPECT_GE(src.retransmits(), 3u);
  EXPECT_EQ(src.timeouts(), 0u);
}

TEST(NewReno, SingleLossStillFastRetransmits) {
  World w({30});
  TcpSourceConfig cfg;
  cfg.flow = 1;
  cfg.dst = w.server->addr();
  cfg.total_packets = 120;
  TcpSource src(&w.sim, w.client, cfg);
  src.start_at(0.0);
  w.sim.run_until(30.0);
  EXPECT_TRUE(src.done());
  EXPECT_EQ(src.timeouts(), 0u);
  EXPECT_GE(src.retransmits(), 1u);
}

TEST(NewReno, BurstLossAcrossWindowBoundaryCompletes) {
  World w({15, 16, 17, 18, 19, 40, 41});
  TcpSourceConfig cfg;
  cfg.flow = 1;
  cfg.dst = w.server->addr();
  cfg.total_packets = 300;
  TcpSource src(&w.sim, w.client, cfg);
  src.start_at(0.0);
  w.sim.run_until(60.0);
  EXPECT_TRUE(src.done());
  EXPECT_EQ(w.sink->delivered_packets(), 300u);
}

}  // namespace
}  // namespace floc
