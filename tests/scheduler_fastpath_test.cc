// Zero-allocation event engine fast path (ISSUE 10, satellite 3).
//
// Lives in the floc_fastpath_test binary, which replaces global operator
// new/delete with the counting versions (FLOC_DEFINE_COUNTING_ALLOCATOR is
// placed by telemetry_fastpath_test.cc in this same binary). What we pin:
// once the arena and the engine's internal vectors are warm, the
// steady-state schedule_in -> fire cycle performs ZERO heap allocations for
// callbacks that fit the inline buffer — on the wheel engine (the shipping
// default) and on the reference heap engine alike. The inline-capacity
// escape hatch (oversized captures fall back to one heap cell) is exercised
// too, so the zero measurement cannot be the counter failing to count.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/simulator.h"
#include "telemetry/alloc_counter.h"

namespace floc {
namespace {

using telemetry::ScopedAllocCount;

// Self-rescheduling functor: 24 bytes, trivially inline. Each firing
// schedules the next round until the fuel runs out, so one warm node serves
// the whole run — the steady-state shape of a traffic source's send timer
// or SimMonitor's tick.
struct Ticker {
  Simulator* sim;
  TimeSec dt;
  std::uint64_t* fuel;
  void operator()() const {
    if (*fuel == 0) return;
    --*fuel;
    sim->schedule_in(dt, Ticker{*this});
  }
};
static_assert(Simulator::Callback::fits_inline<Ticker>());

class SchedulerFastPath : public ::testing::TestWithParam<SimEngine> {};

TEST_P(SchedulerFastPath, SteadyStateScheduleDispatchAllocatesNothing) {
  Simulator sim(GetParam());
  std::uint64_t fuel = 100'000;
  // Warm-up: grows arena chunks, the engines' internal vectors, and the
  // ready heap to their steady footprint. A handful of concurrent tickers
  // at staggered sub-millisecond periods keeps several wheel levels live.
  for (int i = 0; i < 8; ++i) {
    sim.schedule_in(1e-6 * (i + 1),
                    Ticker{&sim, 1e-5 + 3e-6 * i, &fuel});
  }
  sim.run_until(sim.now() + 0.002);
  ASSERT_GT(sim.events_processed(), 100u) << "warm-up did not run";
  ASSERT_GT(fuel, 50'000u) << "warm-up exhausted the fuel";

  ScopedAllocCount guard;
  sim.run_until(sim.now() + 10.0);  // burns the remaining fuel
  EXPECT_EQ(fuel, 0u);
  EXPECT_EQ(guard.allocs(), 0u)
      << to_string(sim.engine())
      << " engine allocated on the steady schedule->fire path";
  EXPECT_EQ(guard.frees(), 0u);
}

TEST_P(SchedulerFastPath, CancelAndLateClampStayOnTheZeroAllocPath) {
  Simulator sim(GetParam());
  std::uint64_t fuel = 100'000;
  sim.schedule_in(1e-4, Ticker{&sim, 1e-4, &fuel});
  // Late schedule (clamped to now) plus a cancelled future event: both
  // traverse push/pop/release without touching the heap. The first
  // iterations are warm-up (the engines' internal vectors grow to the
  // three-concurrent-events footprint); the guarded tail must be clean.
  auto mix = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      auto h = sim.schedule_in(2e-4, Ticker{&sim, 1e-4, &fuel});
      sim.schedule_at(sim.now() - 1.0, [] {});
      EXPECT_TRUE(sim.cancel(h));
      sim.run_until(sim.now() + 5e-4);
    }
  };
  mix(50);
  ASSERT_GT(sim.events_processed(), 10u);
  ScopedAllocCount guard;
  mix(200);
  EXPECT_EQ(guard.allocs(), 0u) << to_string(sim.engine());
  EXPECT_GT(sim.late_events(), 0u);
  EXPECT_GT(sim.cancelled_events(), 0u);
}

TEST_P(SchedulerFastPath, OversizedCaptureFallsBackToExactlyOneHeapCell) {
  // Control: captures beyond kSimCallbackInlineBytes take InlineFunction's
  // heap cell — one alloc on schedule, one free after dispatch. This both
  // documents the escape hatch and proves the counting allocator observes
  // this binary's scheduler traffic (the zero above is a real zero).
  struct Big {
    unsigned char pad[kSimCallbackInlineBytes + 64];
    bool* hit;
    void operator()() const { *hit = true; }
  };
  static_assert(!Simulator::Callback::fits_inline<Big>());

  Simulator sim(GetParam());
  bool hit = false;
  sim.schedule_in(0.5, [] {});  // warm the arena chunk
  sim.run();
  ScopedAllocCount guard;
  Big big{};
  big.hit = &hit;
  sim.schedule_in(1.0, big);
  const std::uint64_t after_schedule = guard.allocs();
  sim.run();
  EXPECT_TRUE(hit);
  EXPECT_EQ(after_schedule, 1u);
  EXPECT_EQ(guard.allocs(), 1u);
  EXPECT_EQ(guard.frees(), 1u);
}

TEST_P(SchedulerFastPath, ArenaFootprintTracksPendingEvents) {
  // Nodes recycle through the freelist: arena occupancy equals the number
  // of events the queue physically holds at every point, and drops to zero
  // once the simulation drains — 5000 dispatches never outgrow the
  // 16-event steady footprint.
  Simulator sim(GetParam());
  std::uint64_t fuel = 5000;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_in(1e-6 * (i + 1), Ticker{&sim, 1e-5, &fuel});
  }
  sim.run_until(0.001);
  EXPECT_EQ(sim.arena_nodes_in_use(), sim.queued_nodes());
  EXPECT_LE(sim.arena_nodes_in_use(), 16u);
  sim.run();
  EXPECT_EQ(fuel, 0u);
  EXPECT_EQ(sim.arena_nodes_in_use(), 0u);
  EXPECT_EQ(sim.queued_nodes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, SchedulerFastPath,
                         ::testing::Values(SimEngine::kHeap,
                                           SimEngine::kWheel),
                         [](const ::testing::TestParamInfo<SimEngine>& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace floc
