// Control-packet handling under stress: SYN floods must not corrupt state,
// leak memory unboundedly, or crowd out established flows' bookkeeping.
#include <gtest/gtest.h>

#include "core/floc_queue.h"

namespace floc {
namespace {

Packet syn(FlowId flow, HostAddr src, const PathId& path) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = 99;
  p.path = path;
  p.type = PacketType::kSyn;
  p.size_bytes = 40;
  return p;
}

TEST(SynFlood, BoundedByBufferAndExpiry) {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 100;
  cfg.flow_timeout = 0.5;
  cfg.control_interval = 0.1;
  FlocQueue q(cfg);
  const PathId path = PathId::of({6});
  // 50k distinct SYNs; the queue must keep functioning and the flow table
  // must shrink back after the timeout.
  double t = 0.0;
  for (int i = 0; i < 50000; ++i) {
    t = i * 1e-4;
    q.enqueue(syn(static_cast<FlowId>(i), static_cast<HostAddr>(i % 1000 + 1), path), t);
    if (i % 2 == 0) q.dequeue(t);
  }
  EXPECT_LE(q.packet_count(), 100u);
  // All flows idle past the timeout: control pass reclaims everything.
  q.run_control(t + 1.0);
  EXPECT_EQ(q.active_origin_path_count(), 0);
}

TEST(SynFlood, CapabilitiesStillIssuedUnderLoad) {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 50;
  FlocQueue q(cfg);
  const PathId path = PathId::of({6});
  int with_caps = 0, serviced = 0;
  for (int i = 0; i < 200; ++i) {
    q.enqueue(syn(static_cast<FlowId>(i), static_cast<HostAddr>(i + 1), path),
              i * 1e-3);
    auto out = q.dequeue(i * 1e-3);
    if (out) {
      ++serviced;
      if (out->cap0 != 0) ++with_caps;
    }
  }
  EXPECT_GT(serviced, 0);
  EXPECT_EQ(with_caps, serviced);  // every serviced SYN carries a capability
}

TEST(SynFlood, SynsDoNotTriggerPreferentialDrops) {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 60;
  FlocQueue q(cfg);
  const PathId path = PathId::of({6});
  for (int i = 0; i < 20000; ++i) {
    q.enqueue(syn(static_cast<FlowId>(i % 100), static_cast<HostAddr>(i % 100 + 1), path),
              i * 1e-4);
    if (i % 2 == 0) q.dequeue(i * 1e-4);
  }
  EXPECT_EQ(q.drops_by_reason(DropReason::kPreferential), 0u);
  EXPECT_EQ(q.drops_by_reason(DropReason::kToken), 0u);
  // Buffer-full drops are the only defense against pure SYN volume here.
  EXPECT_GT(q.drops_by_reason(DropReason::kQueueFull), 0u);
}

}  // namespace
}  // namespace floc
