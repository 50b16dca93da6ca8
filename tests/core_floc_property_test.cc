// Property-style sweeps (TEST_P) over the FLoc queue: invariants that must
// hold for any (bandwidth, buffer, paths, load) combination.
#include <gtest/gtest.h>

#include <set>

#include "core/floc_queue.h"
#include "util/rng.h"

namespace floc {
namespace {

struct QueueCase {
  double link_mbps;
  std::size_t buffer;
  int paths;
  double load_factor;  // offered / capacity
};

class FlocQueueSweep : public ::testing::TestWithParam<QueueCase> {};

Packet data(FlowId flow, const PathId& path, HostAddr src) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = 9999;
  p.path = path;
  p.type = PacketType::kData;
  return p;
}

TEST_P(FlocQueueSweep, ConservationAndBounds) {
  const QueueCase c = GetParam();
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(c.link_mbps);
  cfg.buffer_packets = c.buffer;
  cfg.control_interval = 0.1;
  FlocQueue q(cfg);

  std::vector<PathId> paths;
  for (int i = 0; i < c.paths; ++i)
    paths.push_back(PathId::of({static_cast<AsNumber>(i + 1),
                                static_cast<AsNumber>(100 + i)}));

  const double service_pps = cfg.link_bandwidth / (8.0 * 1500.0);
  const double offered_pps = service_pps * c.load_factor;
  const double dt = 1.0 / offered_pps;
  Rng rng(99);

  std::uint64_t offered = 0, admitted = 0, serviced = 0;
  double next_service = 0.0;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t = i * dt;
    const auto pi = rng.uniform_int(static_cast<std::uint64_t>(c.paths));
    ++offered;
    if (q.enqueue(data(static_cast<FlowId>(pi * 7 + 1),
                       paths[static_cast<std::size_t>(pi)],
                       static_cast<HostAddr>(pi + 1)),
                  t)) {
      ++admitted;
    }
    while (next_service <= t) {
      if (q.dequeue(next_service)) ++serviced;
      next_service += 1.0 / service_pps;
    }
    // Invariant: the buffer bound is never violated.
    ASSERT_LE(q.packet_count(), c.buffer);
  }
  // Conservation: admitted = serviced + still queued.
  EXPECT_EQ(admitted, serviced + q.packet_count());
  // Everything offered was either admitted or dropped.
  EXPECT_EQ(offered, admitted + q.drops());
  // Under overload some drops must occur; under light load almost none.
  if (c.load_factor > 1.3) {
    EXPECT_GT(q.drops(), 0u);
  } else if (c.load_factor < 0.5) {
    EXPECT_LT(static_cast<double>(q.drops()),
              0.05 * static_cast<double>(offered));
  }
}

TEST_P(FlocQueueSweep, ByteCountConsistent) {
  const QueueCase c = GetParam();
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(c.link_mbps);
  cfg.buffer_packets = c.buffer;
  FlocQueue q(cfg);
  const PathId path = PathId::of({1});
  for (int i = 0; i < 50; ++i) q.enqueue(data(1, path, 1), 0.0001 * i);
  EXPECT_EQ(q.byte_count(), q.packet_count() * 1500u);
  while (!q.empty()) q.dequeue(1.0);
  EXPECT_EQ(q.byte_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlocQueueSweep,
    ::testing::Values(QueueCase{5, 50, 1, 2.0}, QueueCase{5, 50, 4, 0.4},
                      QueueCase{20, 200, 8, 1.5}, QueueCase{20, 40, 2, 3.0},
                      QueueCase{100, 500, 16, 1.1},
                      QueueCase{100, 100, 27, 2.5}, QueueCase{1, 20, 1, 4.0},
                      QueueCase{50, 300, 9, 0.9}));

// Aggregation plans must satisfy structural invariants for random inputs.
struct PlanCase {
  int paths;
  int s_max;
  std::uint64_t seed;
};
class AggregationSweep : public ::testing::TestWithParam<PlanCase> {};

TEST_P(AggregationSweep, PlanInvariants) {
  const PlanCase pc = GetParam();
  Rng rng(pc.seed);
  std::vector<PathSnapshot> snaps;
  for (int i = 0; i < pc.paths; ++i) {
    PathId p = PathId::of({static_cast<AsNumber>(rng.uniform_int(5) + 1),
                           static_cast<AsNumber>(rng.uniform_int(20) + 10),
                           static_cast<AsNumber>(i + 1000)});
    snaps.push_back(PathSnapshot{p, rng.uniform(), rng.uniform(1.0, 50.0)});
  }
  AggregationConfig cfg;
  cfg.s_max = pc.s_max;
  Aggregator agg(cfg);
  const AggregationPlan plan = agg.plan(snaps);

  // 1. Every input path mapped.
  for (const auto& s : snaps) {
    ASSERT_EQ(plan.mapping.count(s.path.key()), 1u);
  }
  for (const auto& s : snaps) {
    const auto& e = plan.mapping.at(s.path.key());
    // 2. The aggregate id is a prefix of the origin path.
    EXPECT_TRUE(s.path.has_prefix(e.aggregate));
    // 3. Weights positive, member counts sane.
    EXPECT_GT(e.share_weight, 0.0);
    EXPECT_GE(e.member_count, 1);
    // 4. Attack aggregates have exactly one share.
    if (e.is_attack && e.member_count > 1) {
      EXPECT_DOUBLE_EQ(e.share_weight, 1.0);
    }
  }
  // 5. Identifier count is consistent with the mapping.
  std::set<std::uint64_t> ids;
  for (const auto& [k, e] : plan.mapping) ids.insert(e.group_key());
  EXPECT_EQ(plan.identifier_count, static_cast<int>(ids.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationSweep,
    ::testing::Values(PlanCase{5, 3, 1}, PlanCase{30, 10, 2},
                      PlanCase{30, 40, 3}, PlanCase{100, 20, 4},
                      PlanCase{100, 5, 5}, PlanCase{200, 50, 6},
                      PlanCase{50, 1, 7}, PlanCase{2, 1, 8}));

}  // namespace
}  // namespace floc
