// The event queue behind the Simulator: a hierarchical timer wheel.
//
// The queue stores arena-backed intrusive EventNodes and pops them strictly
// in (time, seq) order — seq is the insertion sequence number (or one
// reserved earlier, which may sort below nodes already queued at the same
// time), so same-timestamp events fire FIFO by seq. That contract sits
// behind the EventQueue interface so the tests can run a binary-heap
// reference queue (tests/heap_event_queue.h) in lockstep with the wheel and
// fuzz for the first divergent pop
// (tests/netsim_event_queue_differential_test.cc).
//
// WheelEventQueue: kLevels levels of kSlots slots, 1 µs ticks, level L slot
// spanning 64^L ticks. Insert and the amortized fire path are O(1);
// per-level occupancy bitmaps make the "jump to next event" a couple of ctz
// instructions, and events beyond the wheel horizon (~19 simulated hours)
// park in a calendar of 2^36-tick buckets that refills the wheel on
// arrival. Multiple distinct double timestamps can share one tick, so an
// expiring slot is drained through a small (time, seq) min-heap of exactly
// that tick's events — reentrant schedules landing in the tick being
// processed merge into the same heap, which is how the wheel keeps exact
// (time, seq) order below its tick resolution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "util/arena.h"
#include "util/inline_function.h"
#include "util/units.h"

namespace floc {

// Sized for the largest recurring captures in the repo: six words, as in
// FlightRecorder's sampling timer. Per-packet events capture at most a
// pointer and a word (Link keeps in-flight packets on its wire FIFO, not in
// events), and SimMonitor's Tick is 32 bytes. Larger captures still work via
// InlineFunction's heap cell; they just are not zero-alloc (link.cc and
// sim_monitor.cc static_assert that their captures fit).
inline constexpr std::size_t kSimCallbackInlineBytes = 48;

using SimCallback = InlineFunction<void(), kSimCallbackInlineBytes>;

// One scheduled event. Lives in the Simulator's NodeArena; `next` threads
// the arena freelist while free and a wheel slot / calendar bucket list
// while queued.
struct EventNode {
  EventNode* next = nullptr;
  std::uint64_t tick = 0;  // time quantized by WheelEventQueue::tick_of
  TimeSec time = 0.0;      // exact requested (post-clamp) fire time
  std::uint64_t seq = 0;   // insertion (or reserved) order; tie-break
  std::uint64_t gen = 0;   // bumped on release; validates TimerHandles
  bool cancelled = false;  // lazy-cancel flag; popped nodes are discarded
  SimCallback cb;
};

// Fires strictly in (time, seq) order via pop_if_at_or_before/pop_any.
// Ownership: nodes are acquired/released by the Simulator; a queue only
// holds them between push and pop (whatever is still queued when the arena
// dies is destroyed by the arena's chunks, so early exits cannot leak).
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  // n->tick/time/seq must be set; the queue takes the node until popped.
  virtual void push(EventNode* n) = 0;

  // Pop the earliest event if its time is <= limit, else nullptr.
  virtual EventNode* pop_if_at_or_before(TimeSec limit) = 0;

  // Pop the earliest event, nullptr when empty.
  virtual EventNode* pop_any() = 0;

  // Nodes physically held (including lazily-cancelled ones).
  virtual std::size_t nodes() const = 0;
};

class WheelEventQueue final : public EventQueue {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64
  static constexpr int kLevels = 6;              // 36 bits of ticks in-wheel
  static constexpr double kTicksPerSec = 1e6;    // 1 µs resolution

  WheelEventQueue() { ready_.reserve(256); }

  // Quantize a (non-negative) simulation time to a wheel tick. Monotone in
  // t; times past the representable range all clamp onto one far-future
  // tick and are then ordered among themselves by exact time in the ready
  // heap, so even absurd horizons fire in the right relative order.
  static std::uint64_t tick_of(TimeSec t) {
    const double scaled = t * kTicksPerSec;
    if (scaled >= kMaxTickAsDouble) return kMaxTick;
    return scaled <= 0.0 ? 0 : static_cast<std::uint64_t>(scaled);
  }

  void push(EventNode* n) override;
  EventNode* pop_if_at_or_before(TimeSec limit) override;
  EventNode* pop_any() override;
  std::size_t nodes() const override { return count_; }

  std::uint64_t current_tick() const { return cur_tick_; }

 private:
  static constexpr std::uint64_t kMaxTick = ~std::uint64_t{0} >> 1;
  static constexpr double kMaxTickAsDouble = 9.2e18;  // < 2^63

  struct SlotList {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
    void append(EventNode* n) {
      n->next = nullptr;
      if (tail != nullptr) {
        tail->next = n;
      } else {
        head = n;
      }
      tail = n;
    }
    bool empty() const { return head == nullptr; }
  };

  struct ReadyLater {
    bool operator()(const EventNode* a, const EventNode* b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  // Route a node to its wheel slot / calendar bucket relative to cur_tick_.
  void place(EventNode* n);
  // Ensure ready_ holds the earliest pending tick's events; false if empty.
  bool prepare_ready();
  EventNode* take_ready();

  SlotList slots_[kLevels][kSlots];
  std::uint64_t occupied_[kLevels] = {};
  // Calendar fallback for events beyond the wheel horizon: 2^36-tick
  // buckets, redistributed into the wheel when the clock reaches them.
  std::map<std::uint64_t, SlotList> calendar_;
  // Events of the single tick currently being fired, as a (time, seq)
  // min-heap; reentrant same-tick schedules merge in here.
  std::vector<EventNode*> ready_;
  std::uint64_t ready_tick_ = 0;  // meaningful only while !ready_.empty()
  std::uint64_t cur_tick_ = 0;
  std::size_t count_ = 0;
};

}  // namespace floc
