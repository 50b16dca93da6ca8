// Discrete-event simulation core: a clock plus a time-ordered event queue.
//
// Events are arbitrary callbacks. Ties are broken by insertion order (or by
// a sequence number reserved earlier, see reserve_seq) so runs are fully
// deterministic.
//
// Engines: the queue behind the clock is pluggable (SimEngine). The default
// is a hierarchical timer wheel whose steady-state schedule->fire path does
// zero heap allocations (arena-recycled intrusive nodes + small-buffer
// inline callbacks); the seed binary heap survives as the reference engine,
// and the differential harness proves the two produce identical event
// orderings. A Simulator runs the wheel unless its constructor is handed
// another engine.
//
// Observability: set_profiler() attaches a steady-clock hook that records the
// wall-clock nanoseconds spent inside each event callback into a telemetry
// histogram (p50/p99 per-event processing cost); register_metrics() publishes
// the scheduler counters as polled gauges. Both are off (and free) by
// default — the run loop pays one pointer-null test per event.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "netsim/event_queue.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "util/arena.h"
#include "util/units.h"

namespace floc {

enum class SimEngine {
  kHeap,   // seed std::priority_queue engine (reference implementation)
  kWheel,  // hierarchical timer wheel + calendar fallback (default)
};
const char* to_string(SimEngine e);

class Simulator {
 public:
  using Callback = SimCallback;

  // Cancellation handle for a scheduled event. Valid only against the
  // Simulator that issued it; a handle goes stale once its event fires,
  // is cancelled, or the node is recycled (generation-checked, so stale
  // cancels are safe no-ops).
  struct TimerHandle {
    EventNode* node = nullptr;
    std::uint64_t gen = 0;
    explicit operator bool() const { return node != nullptr; }
  };

  explicit Simulator(SimEngine engine = SimEngine::kWheel);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimEngine engine() const { return engine_kind_; }

  TimeSec now() const { return now_; }

  // Schedule `cb` at absolute time `t`. A `t` in the past (possible when a
  // callback computes a fire time from stale state) is clamped to `now` and
  // counted in `late_events()` instead of silently reordering time.
  // The callable is emplaced directly into an arena node: one move of the
  // capture, zero heap allocations when it fits the inline buffer.
  template <typename F>
  TimerHandle schedule_at(TimeSec t, F&& cb) {
    return schedule_node(t, node_with(std::forward<F>(cb)));
  }

  // Schedule `cb` after a delay of `dt` seconds.
  template <typename F>
  TimerHandle schedule_in(TimeSec dt, F&& cb) {
    return schedule_at(now_ + dt, std::forward<F>(cb));
  }

  // Reserved positions. A component that may or may not need an event at a
  // known future time (Link's tx-done) takes the next insertion sequence
  // number now, exactly as schedule_at would, and later either schedules at
  // that (t, seq) position or lets it pass unused. Either way every other
  // event keeps the seq it would have had, so eliding the event leaves the
  // (time, seq) order of the rest untouched.
  std::uint64_t reserve_seq() { return next_seq_++; }

  // Schedule `cb` at (t, seq) for a `seq` from reserve_seq(). The position
  // must not have been reached yet (so no clamping applies); it may sort
  // before events already queued at the same time.
  template <typename F>
  TimerHandle schedule_reserved(TimeSec t, std::uint64_t seq, F&& cb) {
    assert(!reached(t, seq) && "reserved position already passed");
    return push_node(t, seq, node_with(std::forward<F>(cb)));
  }

  // True once the run has dispatched, or moved past, the (t, seq) position:
  // an event scheduled there would already have fired (or be firing now).
  bool reached(TimeSec t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && seq < pos_seq_);
  }

  // Cancel a scheduled event. True if the event was still pending (it will
  // never fire); false for stale/foreign/already-cancelled handles. O(1):
  // the node is flagged and discarded when the queue reaches it, which
  // keeps both engines' pop order — and therefore golden traces —
  // identical.
  bool cancel(TimerHandle h);

  // Run until the event queue drains or the clock passes `t_end`.
  void run_until(TimeSec t_end);

  // Run until the event queue drains.
  void run();

  std::uint64_t events_processed() const { return processed_; }
  // Events whose requested time was already in the past (clamped to now).
  std::uint64_t late_events() const { return late_; }
  // Events cancelled before firing.
  std::uint64_t cancelled_events() const { return cancelled_; }
  bool empty() const { return live_ == 0; }
  // Pending (scheduled, not yet fired, not cancelled) events.
  std::size_t pending_events() const { return live_; }

  // Record wall-clock nanoseconds per event callback into `event_ns`
  // (steady clock; measurement only — simulated time is unaffected).
  // nullptr detaches.
  void set_profiler(telemetry::LogHistogram* event_ns) { profile_ns_ = event_ns; }

  // Attribute event-dispatch wall time to a Profiler section (e.g.
  // "sim.dispatch"); composes with set_profiler(). nullptr detaches.
  void set_profile_section(telemetry::Profiler::Section* section) {
    profile_section_ = section;
  }

  // Publish scheduler counters as polled gauges: <prefix>.events_processed,
  // <prefix>.late_events, <prefix>.cancelled_events, <prefix>.pending_events.
  void register_metrics(telemetry::MetricRegistry& reg,
                        const std::string& prefix = "sim") const;

  // Event nodes currently held by the queue, including lazily-cancelled
  // ones awaiting discard (introspection for the arena-accounting tests).
  std::size_t queued_nodes() const { return queue_->nodes(); }
  std::size_t arena_nodes_in_use() const { return arena_.in_use(); }

 private:
  template <typename F>
  EventNode* node_with(F&& cb) {
    EventNode* n = arena_.acquire();
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      n->cb = std::forward<F>(cb);
    } else {
      n->cb.assign(std::forward<F>(cb));
    }
    return n;
  }
  TimerHandle schedule_node(TimeSec t, EventNode* n);
  TimerHandle push_node(TimeSec t, std::uint64_t seq, EventNode* n);
  void fire(EventNode* n);
  void release_node(EventNode* n);
  void dispatch(Callback& cb);

  TimeSec now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  // One past the seq of the event being (or last) dispatched; 0 before the
  // first dispatch. With now_ it is the run's (time, seq) position.
  std::uint64_t pos_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t late_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
  telemetry::LogHistogram* profile_ns_ = nullptr;
  telemetry::Profiler::Section* profile_section_ = nullptr;
  SimEngine engine_kind_;
  // The arena outlives the queue member below only by declaration order;
  // neither touches the other on destruction (pending callbacks are
  // destroyed by the arena's chunks).
  NodeArena<EventNode> arena_;
  std::unique_ptr<EventQueue> queue_;
};

}  // namespace floc
