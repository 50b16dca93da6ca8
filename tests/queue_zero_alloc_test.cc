// Zero-allocation packet path for every queue discipline.
//
// Lives in the floc_fastpath_test binary, whose counting allocator
// (FLOC_DEFINE_COUNTING_ALLOCATOR) ticks on every operator new. After a
// warm-up fill and drain — which grows the thread's packet slab and each
// discipline's per-flow / per-aggregate tables to their working size — a
// run of enqueue/dequeue cycles at partial and at full occupancy must not
// touch the heap at all.
//
// The contract covers the per-packet path only. Work done once per control
// period (FLoc's control loop, RED-PD's epoch rotation, Pushback's ACC
// update, priority-fair's rate window) rebuilds tables and may allocate, so
// the warm-up and the measured cycles run inside the first such period: all
// of them together span less than 50 ms of simulated time. DRR is driven
// with continuously backlogged flows (an emptied flow leaves its map and
// round list). FLoc runs twice: with a stable flow and path set, and under
// identity churn (QueueZeroAlloc.FlocChurnUnderFlowBudgetAllocatesNothing),
// where most packets insert a new accounting flow, evict old ones from the
// budgeted per-path flow table and record a drop in the new record's MTD
// history.
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/drr_queue.h"
#include "baselines/priority_fair.h"
#include "baselines/pushback.h"
#include "baselines/rate_limiter.h"
#include "baselines/red_pd.h"
#include "baselines/red_queue.h"
#include "core/floc_queue.h"
#include "netsim/drop_tail.h"
#include "telemetry/alloc_counter.h"

namespace floc {
namespace {

using telemetry::ScopedAllocCount;

constexpr std::size_t kBuffer = 256;
constexpr int kFlows = 15;     // stable flow set, spread over four paths
constexpr int kCycles = 2000;  // measured enqueue/dequeue cycles
constexpr TimeSec kStep = 0.5e-6;

struct Discipline {
  std::string name;
  std::function<std::unique_ptr<QueueDisc>()> make;
};

// gtest appends the printed parameter to each test's name; without this it
// would dump the object's bytes, heap pointers included, and the names
// would differ from run to run.
void PrintTo(const Discipline& d, std::ostream* os) { *os << d.name; }

std::vector<Discipline> disciplines() {
  std::vector<Discipline> out;
  out.push_back({"droptail", [] {
                   return std::make_unique<DropTailQueue>(kBuffer);
                 }});
  out.push_back({"red", [] {
                   RedConfig cfg;
                   cfg.buffer_packets = kBuffer;
                   cfg.min_th = 64;
                   cfg.max_th = 192;
                   return std::make_unique<RedQueue>(cfg);
                 }});
  out.push_back({"red-pd", [] {
                   RedPdConfig cfg;
                   cfg.red.buffer_packets = kBuffer;
                   cfg.red.min_th = 64;
                   cfg.red.max_th = 192;
                   return std::make_unique<RedPdQueue>(cfg);
                 }});
  out.push_back({"pushback", [] {
                   PushbackConfig cfg;
                   cfg.buffer_packets = kBuffer;
                   return std::make_unique<PushbackQueue>(cfg);
                 }});
  out.push_back({"rate-limiter", [] {
                   auto q = std::make_unique<RateLimiterQueue>(kBuffer);
                   // A generous limit on one path, so the token path runs.
                   q->install_limit(PathId::of({1}), gbps(10), 100.0);
                   return q;
                 }});
  out.push_back({"priority-fair", [] {
                   PriorityFairConfig cfg;
                   cfg.buffer_packets = kBuffer;
                   // Odd flows are attack-capable: once over their fair
                   // share they land in the low-priority queue, so both
                   // queues and the low-priority tail shed run.
                   return std::make_unique<PriorityFairQueue>(
                       cfg, [](FlowId f) { return f % 2 == 0; });
                 }});
  out.push_back({"drr", [] {
                   DrrConfig cfg;
                   cfg.buffer_packets = kBuffer;
                   cfg.max_flow_queue = kBuffer;
                   return std::make_unique<DrrQueue>(cfg);
                 }});
  out.push_back({"floc", [] {
                   FlocConfig cfg;
                   cfg.link_bandwidth = gbps(10);
                   cfg.buffer_packets = kBuffer;
                   return std::make_unique<FlocQueue>(cfg);
                 }});
  return out;
}

// Drives one discipline on the simulated clock. Flows are offered in a fixed
// round-robin order, which keeps every DRR flow queue backlogged: at full
// occupancy every other offer is dropped, and with an odd flow count the
// admitted ones still rotate through all flows.
class Traffic {
 public:
  explicit Traffic(QueueDisc& q) : q_(q) {
    for (int i = 0; i < 4; ++i) {
      paths_[i] = PathId::of({static_cast<AsNumber>(i + 1),
                              static_cast<AsNumber>(100 + i)});
    }
  }

  void offer() {
    const int f = next_flow_++ % kFlows;
    Packet p;
    p.flow = static_cast<FlowId>(f);
    p.src = static_cast<HostAddr>(f + 1);
    p.dst = 9999;
    p.path = paths_[f % 4];
    p.type = PacketType::kData;
    q_.enqueue(std::move(p), now_);
    now_ += kStep;
  }
  void take() {
    q_.dequeue(now_);
    now_ += kStep;
  }
  // Offer until the queue holds `target` packets (or `limit` offers).
  void fill_to(std::size_t target, int limit = 4 * static_cast<int>(kBuffer)) {
    while (q_.packet_count() < target && limit-- > 0) offer();
  }
  void drain() {
    while (!q_.empty()) take();
  }

  TimeSec now() const { return now_; }

 private:
  QueueDisc& q_;
  PathId paths_[4];
  int next_flow_ = 0;
  TimeSec now_ = 0.0;
};

class QueueZeroAlloc : public ::testing::TestWithParam<Discipline> {};

TEST_P(QueueZeroAlloc, SteadyCyclesAtPartialAndFullOccupancyAllocateNothing) {
  const auto q = GetParam().make();
  Traffic d(*q);

  // Warm-up: fill to the brim, drain, then run the measured shapes. The
  // full-occupancy shape runs long enough for every flow's FLoc drop
  // history (MtdTracker) to reach its max_records bound: until then it
  // grows by doubling, as the drops inside its window accumulate.
  d.fill_to(kBuffer);
  d.drain();
  d.fill_to(kBuffer / 4);
  for (int i = 0; i < kCycles; ++i) {
    d.offer();
    d.take();
  }
  d.fill_to(kBuffer);
  for (int i = 0; i < 6 * kCycles; ++i) {
    d.take();
    d.offer();
    d.offer();  // the queue is full again: admitted or dropped
  }
  d.drain();

  // Partial occupancy: a standing backlog of a quarter buffer.
  d.fill_to(kBuffer / 4);
  ASSERT_GE(q->packet_count(), static_cast<std::size_t>(kFlows));
  ScopedAllocCount guard;
  for (int i = 0; i < kCycles; ++i) {
    d.offer();
    d.take();
  }
  EXPECT_EQ(guard.allocs(), 0u) << "partial occupancy";

  // Full occupancy: every cycle frees one slot and offers two packets.
  d.fill_to(kBuffer);
  guard.reset();
  for (int i = 0; i < kCycles; ++i) {
    d.take();
    d.offer();
    d.offer();
  }
  EXPECT_EQ(guard.allocs(), 0u) << "full occupancy";
  EXPECT_GT(q->admissions(), static_cast<std::uint64_t>(2 * kCycles));
  EXPECT_LT(d.now(), 0.05) << "left the first control period";
}

// Identity churn against a budgeted flow table: each path's accounting keys
// rotate through a pool five times the per-path flow budget, on the fixed
// four paths, so nearly every burst inserts a new flow record and every few
// bursts evict a batch. The queue stays full and three offers follow each
// departure, so two packets in three are dropped and land in their record's
// MTD ring; a burst's 6 drops take the ring past its 4 inline entries. Once
// the tables and the reused rings have grown to their working size, none of
// this may touch the heap.
TEST(QueueZeroAlloc, FlocChurnUnderFlowBudgetAllocatesNothing) {
  constexpr std::size_t kBudget = 48;
  constexpr int kPool = 5 * static_cast<int>(kBudget);  // keys per path
  constexpr int kBurst = 9;                             // packets per key
  FlocConfig cfg;
  cfg.link_bandwidth = gbps(10);
  cfg.buffer_packets = kBuffer;
  cfg.flow_budget.capacity = kBudget;
  FlocQueue q(cfg);

  PathId paths[4];
  for (int i = 0; i < 4; ++i) {
    paths[i] = PathId::of({static_cast<AsNumber>(i + 1),
                           static_cast<AsNumber>(100 + i)});
  }
  TimeSec now = 0.0;
  int seq = 0;
  const auto offer = [&] {
    const int burst = seq++ / kBurst;  // consecutive packets share a key
    const int path = burst % 4;
    const int key = (burst / 4) % kPool;
    Packet p;
    p.flow = static_cast<FlowId>(path * 100000 + key);
    p.src = static_cast<HostAddr>(p.flow + 1);
    p.dst = 9999;
    p.path = paths[path];
    p.type = PacketType::kData;
    q.enqueue(std::move(p), now);
    now += kStep;
  };
  const auto cycle = [&] {
    q.dequeue(now);
    now += kStep;
    for (int i = 0; i < 3; ++i) offer();
  };
  const int rotation = 4 * kPool * kBurst / 3;  // cycles per pool rotation

  while (q.packet_count() < kBuffer) offer();
  for (int i = 0; i < 3 * rotation; ++i) cycle();  // warm-up

  const std::uint64_t evicted = q.evicted_flows();
  const std::uint64_t drops = q.drops();
  telemetry::ScopedAllocCount guard;
  for (int i = 0; i < 2 * rotation; ++i) cycle();
  EXPECT_EQ(guard.allocs(), 0u);

  EXPECT_GT(q.evicted_flows() - evicted,
            static_cast<std::uint64_t>(4 * kPool)) << "keys did not churn";
  const auto offers = static_cast<std::uint64_t>(3 * 2 * rotation);
  EXPECT_GT(10 * (q.drops() - drops), 6 * offers)
      << "most offers should be dropped";
  EXPECT_LE(q.max_path_flow_count(), kBudget);
  EXPECT_LT(now, cfg.control_interval) << "left the first control period";
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, QueueZeroAlloc, ::testing::ValuesIn(disciplines()),
    [](const ::testing::TestParamInfo<Discipline>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace floc
