#include "netsim/simulator.h"

#include <gtest/gtest.h>

#include "heap_event_queue.h"

#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace floc {
namespace {

// The core contract tests run on both event queues: the timer wheel every
// Simulator runs, and the heap reference queue the differential tests
// compare it against — an oracle must meet the contract it is trusted for.
class SimulatorContract : public ::testing::TestWithParam<Engine> {
 protected:
  Simulator sim{make_event_queue(GetParam())};
};

TEST_P(SimulatorContract, RunsEventsInTimeOrder) {
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST_P(SimulatorContract, FifoAmongSameTimeEvents) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_P(SimulatorContract, ScheduleInIsRelative) {
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST_P(SimulatorContract, RunUntilStopsAtBoundary) {
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(static_cast<double>(i), [&] { ++count; });
  }
  sim.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(10.0);
  EXPECT_EQ(count, 10);
}

TEST_P(SimulatorContract, RunUntilAdvancesClockWhenIdle) {
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST_P(SimulatorContract, PastEventsClampToNowAndAreCounted) {
  std::vector<double> fired_at;
  sim.schedule_at(5.0, [&] {
    // A fault handler computing an absolute time from stale state may land
    // in the past; it must run "immediately" instead of corrupting order.
    sim.schedule_at(1.0, [&] { fired_at.push_back(sim.now()); });
    sim.schedule_at(6.0, [&] { fired_at.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_DOUBLE_EQ(fired_at[0], 5.0);
  EXPECT_DOUBLE_EQ(fired_at[1], 6.0);
  EXPECT_EQ(sim.late_events(), 1u);
}

TEST_P(SimulatorContract, OnTimeEventsAreNotLate) {
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_EQ(sim.late_events(), 0u);
}

TEST_P(SimulatorContract, EventsCanCascade) {
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(0.001, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST_P(SimulatorContract, MoveOnlyCapturesAreFirstClass) {
  // The seed engine's std::function required copyable callables, forcing
  // shared_ptr workarounds for owned state. InlineFunction is move-only by
  // design: a unique_ptr capture schedules directly.
  auto owned = std::make_unique<int>(7);
  int got = 0;
  sim.schedule_at(1.0, [&got, p = std::move(owned)] { got = *p; });
  sim.run();
  EXPECT_EQ(got, 7);
}

// Counts copies/moves of its capture state through the scheduler. The seed
// engine copied the std::function out of priority_queue::top() on EVERY
// dispatch (top() is const, so pop-by-move was impossible); the node-based
// engines must never copy — one move into the event node at schedule time,
// one move out at dispatch, zero copies.
struct CopyCounter {
  int* copies;
  int* moves;
  CopyCounter(int* c, int* m) : copies(c), moves(m) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), moves(o.moves) {
    ++*copies;
  }
  CopyCounter(CopyCounter&& o) noexcept : copies(o.copies), moves(o.moves) {
    ++*moves;
  }
  void operator()() const {}
};

TEST_P(SimulatorContract, DispatchNeverCopiesTheCallback) {
  int copies = 0;
  int moves = 0;
  sim.schedule_at(1.0, CopyCounter(&copies, &moves));
  sim.schedule_at(2.0, CopyCounter(&copies, &moves));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(copies, 0) << "dispatch copied a callback (seed-engine "
                          "priority_queue::top() regression)";
  // Exactly two moves per event: into the arena node, out at dispatch.
  EXPECT_EQ(moves, 2 * 2);
}

TEST_P(SimulatorContract, CancelPreventsFiringAndIsCounted) {
  int fired = 0;
  auto h1 = sim.schedule_at(1.0, [&] { ++fired; });
  auto h2 = sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(static_cast<bool>(h1));
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.cancel(h1));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(h1)) << "double cancel must be a no-op";
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  EXPECT_FALSE(sim.cancel(h2)) << "handle to a fired event is stale";
  // A cancelled event neither advances the clock to its own time nor runs.
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST_P(SimulatorContract, StaleHandleToRecycledNodeIsRejected) {
  int fired = 0;
  auto h = sim.schedule_at(1.0, [&] { ++fired; });
  sim.run();  // fires; the node returns to the arena freelist
  // The next schedule typically reuses the same node; the old handle's
  // generation no longer matches and must not cancel the new event.
  auto h2 = sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_TRUE(static_cast<bool>(h2));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST_P(SimulatorContract, PendingCallbacksReleaseOwnedStateOnDestruction) {
  // run_until early exit leaves events queued; destroying the Simulator
  // must destroy their captured state (the arena's chunks own the nodes).
  auto tracked = std::make_shared<int>(1);
  ASSERT_EQ(tracked.use_count(), 1);
  {
    Simulator inner(make_event_queue(GetParam()));
    inner.schedule_at(100.0, [keep = tracked] { (void)*keep; });
    inner.schedule_at(200.0, [keep = tracked] { (void)*keep; });
    inner.run_until(1.0);  // early exit: both events still pending
    EXPECT_EQ(tracked.use_count(), 3);
  }
  EXPECT_EQ(tracked.use_count(), 1) << "queued callback leaked its capture";
}

TEST_P(SimulatorContract, CancelledCallbackStateIsReleasedWhenDiscarded) {
  auto tracked = std::make_shared<int>(1);
  auto h = sim.schedule_at(1.0, [keep = tracked] { (void)*keep; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(tracked.use_count(), 2) << "lazy cancel keeps the node queued";
  sim.run_until(2.0);  // pops and discards the cancelled node
  EXPECT_EQ(tracked.use_count(), 1);
  EXPECT_EQ(sim.events_processed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, SimulatorContract,
                         ::testing::Values(Engine::kHeap, Engine::kWheel),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace floc
