// Reference event queue for the differential tests: the seed simulator's
// std::priority_queue, over EventNode pointers so a pop moves nothing.
// O(log n) per op and simple enough to trust by reading, it is the oracle
// the timer wheel (src/netsim/event_queue.h) is fuzzed against — both must
// pop strictly in (time, seq) order. Tests hand it to a Simulator through
// the queue-injecting constructor; nothing outside tests/ runs it.
#pragma once

#include <cstddef>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "netsim/event_queue.h"
#include "util/units.h"

namespace floc {

class HeapEventQueue final : public EventQueue {
 public:
  HeapEventQueue() {
    std::vector<EventNode*> storage;
    storage.reserve(kReserveNodes);
    pq_ = decltype(pq_)(Later{}, std::move(storage));
  }

  void push(EventNode* n) override { pq_.push(n); }

  EventNode* pop_if_at_or_before(TimeSec limit) override {
    if (pq_.empty() || pq_.top()->time > limit) return nullptr;
    EventNode* n = pq_.top();
    pq_.pop();
    return n;
  }

  EventNode* pop_any() override {
    if (pq_.empty()) return nullptr;
    EventNode* n = pq_.top();
    pq_.pop();
    return n;
  }

  std::size_t nodes() const override { return pq_.size(); }

 private:
  // Construction-time headroom so the first few hundred concurrent events
  // never grow the storage on the fire path.
  static constexpr std::size_t kReserveNodes = 256;

  struct Later {
    bool operator()(const EventNode* a, const EventNode* b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };
  std::priority_queue<EventNode*, std::vector<EventNode*>, Later> pq_;
};

// The two queues a test can run a Simulator on.
enum class Engine {
  kHeap,   // HeapEventQueue above (the oracle)
  kWheel,  // WheelEventQueue (what every Simulator() runs)
};

inline const char* to_string(Engine e) {
  return e == Engine::kHeap ? "heap" : "wheel";
}

inline std::unique_ptr<EventQueue> make_event_queue(Engine e) {
  if (e == Engine::kHeap) return std::make_unique<HeapEventQueue>();
  return std::make_unique<WheelEventQueue>();
}

}  // namespace floc
