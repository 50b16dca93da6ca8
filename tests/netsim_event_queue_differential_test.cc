// Differential scheduler-testing harness: drives a heap-engine Simulator and
// a wheel-engine Simulator in lockstep through identical randomized op
// scripts and requires bit-identical observable behavior — same fire order,
// same per-event clock readings, same late/cancelled/processed counters,
// same final clock. This is the proof obligation for swapping the event
// engine under every scenario in the repo: any divergence in (time, seq)
// ordering, late-event clamping, lazy-cancel discard, calendar-horizon
// refill, reentrant same-tick scheduling, or scheduling into reserved
// (time, seq) slots shows up as a log mismatch with the first divergent
// index.
//
// Volume contract (ISSUE 10): >= 32 seeds x 32'000 scripted
// schedule/cancel/clamp/run ops = > 1e6 randomized ops, before counting the
// reentrant children the scripted events spawn.

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "heap_event_queue.h"
#include "netsim/simulator.h"
#include "util/rng.h"

namespace floc {
namespace {

// Deterministic per-event hash used by callbacks to decide reentrant
// children. Both engines see the same event ids, so they derive the same
// children — unless their fire order diverges, which the logs then catch.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Fire {
  std::uint64_t id;
  TimeSec at;
  bool operator==(const Fire& o) const { return id == o.id && at == o.at; }
};

// A reserved (t, seq) position that an event may later schedule into.
struct Slot {
  TimeSec t;
  std::uint64_t seq;
};

// One simulator under test plus everything the script needs to drive it.
struct Lane {
  explicit Lane(Engine e) : sim(make_event_queue(e)) {}
  Simulator sim;
  std::vector<Fire> log;
  std::vector<Simulator::TimerHandle> handles;  // index-aligned across lanes
  std::vector<Slot> slots;  // open reserved slots, index-aligned too
  std::size_t fills = 0;    // slots scheduled into
};

class Harness {
 public:
  Harness() : heap_(Engine::kHeap), wheel_(Engine::kWheel) {}

  // Schedule event `id` at absolute time `t` on both lanes. Depth-limited
  // reentrancy: when fired, an event may schedule children at deterministic
  // offsets derived from its id (including dt=0 same-time children, which
  // must fire FIFO after everything already queued at that instant).
  void schedule_at(TimeSec t, std::uint64_t id, int depth) {
    for (Lane* lane : lanes()) {
      lane->handles.push_back(
          lane->sim.schedule_at(t, make_event(lane, id, depth)));
    }
  }

  void schedule_in(TimeSec dt, std::uint64_t id, int depth) {
    // Lanes can only diverge if clocks diverged, which check_synced pins.
    for (Lane* lane : lanes()) {
      lane->handles.push_back(
          lane->sim.schedule_in(dt, make_event(lane, id, depth)));
    }
  }

  // Cancel the handle at `index` on both lanes; the outcomes must agree
  // (true iff still pending — identically stale otherwise).
  void cancel(std::size_t index) {
    const bool a = heap_.sim.cancel(heap_.handles[index]);
    const bool b = wheel_.sim.cancel(wheel_.handles[index]);
    ASSERT_EQ(a, b) << "cancel(" << index << ") diverged";
  }

  // Reserve the next seq on both lanes (they must hand out the same one).
  std::uint64_t reserve() {
    const std::uint64_t a = heap_.sim.reserve_seq();
    const std::uint64_t b = wheel_.sim.reserve_seq();
    EXPECT_EQ(a, b) << "reserve_seq diverged";
    return a;
  }

  // Schedule event `id` into the reserved (t, seq) slot on both lanes.
  void schedule_reserved(TimeSec t, std::uint64_t seq, std::uint64_t id,
                         int depth) {
    for (Lane* lane : lanes()) {
      lane->handles.push_back(
          lane->sim.schedule_reserved(t, seq, make_event(lane, id, depth)));
    }
  }

  // Whether the run has reached (t, seq); the lanes must agree.
  bool reached(TimeSec t, std::uint64_t seq) {
    const bool a = heap_.sim.reached(t, seq);
    const bool b = wheel_.sim.reached(t, seq);
    EXPECT_EQ(a, b) << "reached(" << t << ", " << seq << ") diverged";
    return a;
  }

  // Reserve a slot at `t` that events may fill when they fire (see
  // make_event); unfilled slots simply pass.
  void offer_slot(TimeSec t) {
    const std::uint64_t seq = reserve();
    for (Lane* lane : lanes()) lane->slots.push_back(Slot{t, seq});
  }

  // Fill the oldest open slot on both lanes, from outside any event.
  void fill_slot(std::uint64_t id, int depth) {
    for (Lane* lane : lanes()) fill_slot(lane, id, depth);
  }

  void run_until(TimeSec t) {
    heap_.sim.run_until(t);
    wheel_.sim.run_until(t);
    check_synced();
  }

  void run() {
    heap_.sim.run();
    wheel_.sim.run();
    check_synced();
  }

  void check_synced() {
    ASSERT_EQ(heap_.sim.now(), wheel_.sim.now());
    ASSERT_EQ(heap_.sim.events_processed(), wheel_.sim.events_processed());
    ASSERT_EQ(heap_.sim.late_events(), wheel_.sim.late_events());
    ASSERT_EQ(heap_.sim.cancelled_events(), wheel_.sim.cancelled_events());
    ASSERT_EQ(heap_.sim.pending_events(), wheel_.sim.pending_events());
    ASSERT_EQ(heap_.log.size(), wheel_.log.size());
    for (std::size_t i = 0; i < heap_.log.size(); ++i) {
      ASSERT_TRUE(heap_.log[i] == wheel_.log[i])
          << "first divergence at fire #" << i << ": heap=(id "
          << heap_.log[i].id << " @ " << heap_.log[i].at << ") wheel=(id "
          << wheel_.log[i].id << " @ " << wheel_.log[i].at << ")";
    }
  }

  Lane& heap() { return heap_; }
  Lane& wheel() { return wheel_; }
  std::size_t handle_count() const { return heap_.handles.size(); }

 private:
  std::array<Lane*, 2> lanes() { return {&heap_, &wheel_}; }

  Simulator::Callback make_event(Lane* lane, std::uint64_t id, int depth) {
    return Simulator::Callback([this, lane, id, depth] {
      lane->log.push_back(Fire{id, lane->sim.now()});
      if (depth <= 0) return;
      const std::uint64_t h = mix(id);
      // 0-2 children at id-derived offsets; h==... cases include dt=0
      // (same-instant FIFO) and sub-tick offsets (same wheel tick,
      // different double time).
      const int kids = static_cast<int>(h % 3);
      for (int k = 0; k < kids; ++k) {
        const std::uint64_t hk = mix(h + static_cast<std::uint64_t>(k));
        TimeSec dt;
        switch (hk % 4) {
          case 0: dt = 0.0; break;                              // same instant
          case 1: dt = static_cast<double>(hk % 997) * 1e-9; break;  // sub-tick
          case 2: dt = static_cast<double>(hk % 1009) * 1e-5; break;
          default: dt = static_cast<double>(hk % 97) * 0.5; break;
        }
        const std::uint64_t kid_id = id * 8 + 1 + static_cast<std::uint64_t>(k);
        lane->handles.push_back(lane->sim.schedule_in(
            dt, make_event(lane, kid_id, depth - 1)));
      }
      // Reentrant fill: schedule into the oldest open reserved slot. It can
      // lie in the tick being fired, below the seqs queued there.
      if (h % 4 == 3) fill_slot(lane, id * 8 + 4, depth - 1);
    });
  }

  void fill_slot(Lane* lane, std::uint64_t id, int depth) {
    auto& slots = lane->slots;
    std::size_t i = 0;
    while (i < slots.size() && lane->sim.reached(slots[i].t, slots[i].seq)) {
      ++i;
    }
    slots.erase(slots.begin(), slots.begin() + static_cast<long>(i));
    if (slots.empty()) return;
    const Slot slot = slots.front();
    slots.erase(slots.begin());
    ++lane->fills;
    lane->handles.push_back(lane->sim.schedule_reserved(
        slot.t, slot.seq, make_event(lane, id, depth)));
  }

  Lane heap_;
  Lane wheel_;
};

constexpr int kScriptOps = 32'000;
constexpr int kSeeds = 32;

class EngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDifferential, LockstepFuzz) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Harness h;
  std::uint64_t next_id = 1;
  int ops = 0;
  for (int op = 0; op < kScriptOps; ++op) {
    ++ops;
    const double roll = rng.uniform();
    const TimeSec now = h.heap().sim.now();
    if (roll < 0.45) {
      // Future schedule, mixed magnitudes: sub-tick collisions, in-wheel
      // level 0..5, beyond-horizon calendar parking, and absurd far-future.
      TimeSec dt;
      const double mag = rng.uniform();
      if (mag < 0.25) {
        dt = rng.uniform() * 1e-6;            // sub-tick / tick collisions
      } else if (mag < 0.30) {
        dt = 0.0;                             // same-instant FIFO
      } else if (mag < 0.70) {
        dt = rng.uniform() * 2.0;             // wheel levels 0-3
      } else if (mag < 0.90) {
        dt = rng.uniform() * 5e4;             // upper wheel levels
      } else if (mag < 0.98) {
        dt = 7e4 + rng.uniform() * 1e6;       // beyond the ~68719 s horizon
      } else {
        dt = 1e12 + rng.uniform() * 1e12;     // deep calendar
      }
      h.schedule_in(dt, next_id++ * 8, rng.uniform() < 0.3 ? 2 : 0);
    } else if (roll < 0.55) {
      // Past/clamp schedule: must fire at `now`, counted in late_events.
      h.schedule_at(now - rng.uniform() * (now + 1.0), next_id++ * 8, 0);
    } else if (roll < 0.75) {
      // Cancel a random handle: pending, fired, already-cancelled, or a
      // recycled node — outcomes must agree lane-to-lane.
      if (h.handle_count() > 0) {
        h.cancel(rng.uniform_int(h.handle_count()));
      }
    } else if (roll < 0.97) {
      // Bounded run slice. Often lands between queued ticks, leaving the
      // wheel clock peeked ahead of the Simulator clock — the regime that
      // forces behind-clock placement on later schedules.
      h.run_until(now + rng.uniform() * rng.uniform() * 20.0);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      // Long jump: drains most of the wheel, occasionally into calendar
      // refill territory.
      h.run_until(now + rng.uniform() * 2e5);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  h.run();
  if (::testing::Test::HasFatalFailure()) return;
  // Everything non-cancelled fired, identically, on both lanes.
  EXPECT_EQ(h.heap().sim.pending_events(), 0u);
  EXPECT_GT(h.heap().sim.late_events(), 0u);
  EXPECT_GT(h.heap().sim.cancelled_events(), 0u);
  EXPECT_GE(ops, kScriptOps);
  EXPECT_EQ(h.heap().log.size(), h.heap().sim.events_processed());
}

std::vector<std::uint64_t> seeds() {
  std::vector<std::uint64_t> s;
  for (std::uint64_t i = 1; i <= kSeeds; ++i) s.push_back(i * 7919);
  return s;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential,
                         ::testing::ValuesIn(seeds()));

// Reserved slots in the randomized mix. Slots are reserved at short, mixed
// offsets (same instant, sub-tick, a few wheel levels) so they tie with
// queued events; they are filled from the script or reentrantly by firing
// events, or left to pass unfilled. Bounded run slices keep the wheel's
// peeked clock ahead of the Simulator clock, so fills land behind it too.
constexpr int kSlotScriptOps = 8'000;
constexpr int kSlotSeeds = 8;

class ReservedSlotDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReservedSlotDifferential, LockstepFuzz) {
  Rng rng(GetParam());
  Harness h;
  std::uint64_t next_id = 1;
  for (int op = 0; op < kSlotScriptOps; ++op) {
    const double roll = rng.uniform();
    const TimeSec now = h.heap().sim.now();
    const double mag = rng.uniform();
    TimeSec dt;
    if (mag < 0.2) {
      dt = 0.0;
    } else if (mag < 0.5) {
      dt = rng.uniform() * 1e-6;
    } else if (mag < 0.9) {
      dt = rng.uniform() * 0.01;
    } else {
      dt = rng.uniform() * 2.0;
    }
    if (roll < 0.35) {
      h.schedule_in(dt, next_id++ * 8, rng.uniform() < 0.5 ? 2 : 0);
    } else if (roll < 0.6) {
      h.offer_slot(now + dt);
    } else if (roll < 0.75) {
      h.fill_slot(next_id++ * 8, 1);
    } else {
      h.run_until(now + rng.uniform() * rng.uniform() * 0.05);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  h.run();
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(h.heap().sim.pending_events(), 0u);
  EXPECT_EQ(h.heap().log.size(), h.heap().sim.events_processed());
  EXPECT_EQ(h.heap().fills, h.wheel().fills);
  EXPECT_GT(h.heap().fills, 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservedSlotDifferential,
                         ::testing::Range<std::uint64_t>(1, kSlotSeeds + 1));

// Directed: a slot reserved before other events were queued at the same
// instant fires ahead of them, on both engines, whether it is filled from
// outside the run or by an event firing earlier in the same tick.
TEST(EngineDifferentialDirected, ReservedSlotSortsBelowQueuedSameTickEvents) {
  Harness h;
  const std::uint64_t early = h.reserve();
  const std::uint64_t sub_tick = h.reserve();
  h.schedule_at(1.0, 8, 0);
  h.schedule_at(1.0 + 3e-7, 16, 0);  // same 1 µs tick, later in it
  h.schedule_at(1.0, 24, 0);
  EXPECT_FALSE(h.reached(1.0, early));
  h.schedule_reserved(1.0, early, 32, 0);
  h.schedule_reserved(1.0 + 3e-7, sub_tick, 40, 0);
  h.run();
  if (::testing::Test::HasFatalFailure()) return;
  const std::uint64_t want[] = {32, 8, 24, 40, 16};
  ASSERT_EQ(h.heap().log.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(h.heap().log[i].id, want[i]) << "position " << i;
  }
}

TEST(EngineDifferentialDirected, ReentrantReservedFillMergesIntoFiringTick) {
  // Two slots are reserved right after the first t=1 event was queued: one
  // at t=1 (same instant), one at t=1+2e-7 (same 1 µs tick). That event
  // fills both while its tick is being drained; each must still fire ahead
  // of the events queued after the reservation at its own time.
  Simulator heap(make_event_queue(Engine::kHeap));
  Simulator wheel(make_event_queue(Engine::kWheel));
  for (Simulator* sim : {&heap, &wheel}) {
    std::vector<int> fired;
    std::uint64_t same_instant = 0;
    std::uint64_t same_tick = 0;
    const std::uint64_t first = 0;  // the seq of the first event below
    sim->schedule_at(1.0, [&] {
      fired.push_back(1);
      EXPECT_TRUE(sim->reached(1.0, first));
      EXPECT_FALSE(sim->reached(1.0, same_instant));
      sim->schedule_reserved(1.0 + 2e-7, same_tick,
                             [&] { fired.push_back(5); });
      sim->schedule_reserved(1.0, same_instant, [&] { fired.push_back(2); });
    });
    same_instant = sim->reserve_seq();
    same_tick = sim->reserve_seq();
    sim->schedule_at(1.0, [&] { fired.push_back(3); });
    sim->schedule_at(1.0 + 2e-7, [&] { fired.push_back(6); });
    sim->schedule_at(1.0 + 1e-7, [&] { fired.push_back(4); });
    sim->run();
    const std::vector<int> want = {1, 2, 3, 4, 5, 6};
    EXPECT_EQ(fired, want) << (sim == &heap ? "heap" : "wheel");
  }
}

TEST(EngineDifferentialDirected, ReservedSlotBehindPeekedClock) {
  // A bounded run peeks the t=10 events and advances the wheel clock to
  // their tick; slots filled afterwards at t=6 (behind the wheel clock) and
  // at t=10 (below the seq of an event already drawn into the ready heap)
  // must still fire in exact (time, seq) order.
  Harness h;
  const std::uint64_t at_ten = h.reserve();
  h.schedule_at(10.0, 8, 0);
  const std::uint64_t at_six = h.reserve();
  h.run_until(5.0);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(h.heap().sim.now(), 0.0);
  EXPECT_FALSE(h.reached(10.0, at_ten));
  EXPECT_FALSE(h.reached(6.0, at_six));
  h.schedule_at(6.0, 16, 0);
  h.schedule_reserved(6.0, at_six, 24, 0);
  h.schedule_reserved(10.0, at_ten, 32, 0);
  h.run();
  if (::testing::Test::HasFatalFailure()) return;
  const std::uint64_t want[] = {24, 16, 32, 8};
  ASSERT_EQ(h.heap().log.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(h.heap().log[i].id, want[i]) << "position " << i;
  }
}

TEST(EngineDifferentialDirected, ReachedFollowsTheDispatchPosition) {
  Harness h;
  const std::uint64_t before = h.reserve();
  h.schedule_at(2.0, 8, 0);
  const std::uint64_t after = h.reserve();
  EXPECT_FALSE(h.reached(0.0, before));  // nothing dispatched yet
  h.run_until(2.0);
  if (::testing::Test::HasFatalFailure()) return;
  // At t=2 the event with the seq between the two slots has fired.
  EXPECT_TRUE(h.reached(2.0, before));
  EXPECT_FALSE(h.reached(2.0, after));
  EXPECT_TRUE(h.reached(1.0, after));
  // A drained run that jumps the clock passes every slot up to its limit.
  h.run_until(3.0);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_TRUE(h.reached(3.0, after));
  EXPECT_FALSE(h.reached(3.0, h.reserve()));
}

// Directed: a same-instant storm. N events at exactly t=1.0 scheduled in
// insertion order, interleaved with dt=0 reentrant children, must fire FIFO
// on both engines.
TEST(EngineDifferentialDirected, SameInstantFifo) {
  Harness h;
  for (std::uint64_t i = 0; i < 500; ++i) h.schedule_at(1.0, 8 * (i + 1), 1);
  h.run();
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GE(h.heap().log.size(), 500u);
  // The 500 scripted events fire in insertion order before any children
  // (children of event k are scheduled only once k fires, hence after it).
  for (std::uint64_t i = 0; i + 1 < 500; ++i) {
    EXPECT_EQ(h.heap().log[i].at, 1.0);
  }
}

// Directed: cancelling from inside a callback, including the event that is
// next to fire in the same tick.
TEST(EngineDifferentialDirected, ReentrantCancel) {
  Simulator heap(make_event_queue(Engine::kHeap));
  Simulator wheel(make_event_queue(Engine::kWheel));
  for (Simulator* sim : {&heap, &wheel}) {
    std::vector<int> fired;
    Simulator::TimerHandle victim;  // filled after the canceller is queued
    sim->schedule_at(1.0, [&] {
      fired.push_back(1);
      EXPECT_TRUE(sim->cancel(victim));   // same-tick later event
      EXPECT_FALSE(sim->cancel(victim));  // idempotent
    });
    victim = sim->schedule_at(1.0, [&] { fired.push_back(2); });
    sim->schedule_at(1.0, [&] { fired.push_back(3); });
    sim->run();
    EXPECT_EQ(sim->events_processed(), 2u);
    EXPECT_EQ(sim->cancelled_events(), 1u);
    ASSERT_EQ(fired.size(), 2u) << (sim == &heap ? "heap" : "wheel");
    EXPECT_EQ(fired[0], 1);
    EXPECT_EQ(fired[1], 3);
  }
}

// Directed: the wheel's peek-ahead regime. A bounded run_until whose limit
// falls short of the earliest event advances the wheel's internal clock but
// not the Simulator clock; schedules issued afterwards (legal: time >= now)
// carry ticks behind the wheel clock and must still fire in exact time
// order.
TEST(EngineDifferentialDirected, ScheduleBehindPeekedClock) {
  Harness h;
  h.schedule_at(10.0, 8, 0);
  h.run_until(5.0);  // peeks at the t=10 event; wheel clock advances
  if (::testing::Test::HasFatalFailure()) return;
  // Contract (unchanged from the seed engine): a bounded run leaves now()
  // untouched while events remain pending beyond the limit.
  EXPECT_EQ(h.heap().sim.now(), 0.0);
  h.schedule_at(6.0, 16, 0);   // behind the peeked wheel clock
  h.schedule_at(6.0, 24, 0);   // FIFO partner at the same instant
  h.schedule_at(5.0, 32, 0);   // earlier still, also behind the peek
  h.run();
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(h.heap().log.size(), 4u);
  EXPECT_EQ(h.heap().log[0].id, 32u);
  EXPECT_EQ(h.heap().log[1].id, 16u);
  EXPECT_EQ(h.heap().log[2].id, 24u);
  EXPECT_EQ(h.heap().log[3].id, 8u);
}

// Directed: calendar-horizon boundary. Events straddling the 2^36-tick wheel
// horizon (~68719 s) must interleave correctly with near events and with
// each other across calendar buckets.
TEST(EngineDifferentialDirected, CalendarHorizonInterleaving) {
  Harness h;
  const double horizon = 68719.476736;  // 2^36 ticks at 1 µs
  h.schedule_at(horizon * 3 + 0.5, 8, 0);
  h.schedule_at(1.0, 16, 0);
  h.schedule_at(horizon + 0.25, 24, 0);
  h.schedule_at(horizon - 0.25, 32, 0);
  h.schedule_at(horizon + 0.25, 40, 0);  // FIFO partner in a calendar bucket
  h.schedule_at(horizon * 2, 48, 0);
  h.run();
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(h.heap().log.size(), 6u);
  const std::uint64_t want[] = {16, 32, 24, 40, 48, 8};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(h.heap().log[i].id, want[i]) << "position " << i;
  }
}

}  // namespace
}  // namespace floc
