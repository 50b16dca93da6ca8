#include "netsim/simulator.h"

#include <chrono>

namespace floc {

const char* to_string(SimEngine e) {
  switch (e) {
    case SimEngine::kHeap:
      return "heap";
    case SimEngine::kWheel:
      return "wheel";
  }
  return "?";
}

Simulator::Simulator(SimEngine engine) : engine_kind_(engine) {
  if (engine == SimEngine::kHeap) {
    queue_ = std::make_unique<HeapEventQueue>();
  } else {
    queue_ = std::make_unique<WheelEventQueue>();
  }
}

Simulator::TimerHandle Simulator::schedule_node(TimeSec t, EventNode* n) {
  if (t < now_) {
    // In release builds the old assert compiled away and the event ran
    // "before" already-processed time, corrupting causality; clamp instead.
    ++late_;
    t = now_;
  }
  return push_node(t, next_seq_++, n);
}

Simulator::TimerHandle Simulator::push_node(TimeSec t, std::uint64_t seq,
                                            EventNode* n) {
  n->tick = WheelEventQueue::tick_of(t);
  n->time = t;
  n->seq = seq;
  n->cancelled = false;
  ++live_;
  queue_->push(n);
  return TimerHandle{n, n->gen};
}

bool Simulator::cancel(TimerHandle h) {
  if (h.node == nullptr || h.node->gen != h.gen || h.node->cancelled) {
    return false;
  }
  // Flag only: the node stays queued and is discarded when popped, so the
  // surviving events' relative order is untouched in both engines.
  h.node->cancelled = true;
  ++cancelled_;
  --live_;
  return true;
}

void Simulator::release_node(EventNode* n) {
  n->cb.reset();
  ++n->gen;  // invalidate any TimerHandle still pointing here
  arena_.release(n);
}

void Simulator::fire(EventNode* n) {
  now_ = n->time;
  pos_seq_ = n->seq + 1;
  --live_;
  ++processed_;
  // Move the callback out and recycle the node BEFORE dispatching: the
  // callback may schedule (acquiring nodes) reentrantly, and this keeps
  // steady-state arena occupancy at exactly the pending-event count.
  Callback cb = std::move(n->cb);
  release_node(n);
  dispatch(cb);
}

void Simulator::dispatch(Callback& cb) {
  if (profile_ns_ == nullptr && profile_section_ == nullptr) {
    cb();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  cb();
  const auto dt = std::chrono::steady_clock::now() - t0;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  if (profile_ns_ != nullptr) profile_ns_->observe(static_cast<double>(ns));
  if (profile_section_ != nullptr) profile_section_->record(ns);
}

void Simulator::run_until(TimeSec t_end) {
  while (EventNode* n = queue_->pop_if_at_or_before(t_end)) {
    if (n->cancelled) {
      // Cancelled events neither advance the clock nor count as processed.
      release_node(n);
      continue;
    }
    fire(n);
  }
  if (live_ == 0 && now_ < t_end) {
    // Drained: every position up to t_end counts as passed, including
    // reserved ones nothing was scheduled at.
    now_ = t_end;
    pos_seq_ = next_seq_;
  }
}

void Simulator::run() {
  while (EventNode* n = queue_->pop_any()) {
    if (n->cancelled) {
      release_node(n);
      continue;
    }
    fire(n);
  }
}

void Simulator::register_metrics(telemetry::MetricRegistry& reg,
                                 const std::string& prefix) const {
  reg.gauge_fn(prefix + ".events_processed",
               [this] { return static_cast<double>(events_processed()); });
  reg.gauge_fn(prefix + ".late_events",
               [this] { return static_cast<double>(late_events()); });
  reg.gauge_fn(prefix + ".cancelled_events",
               [this] { return static_cast<double>(cancelled_events()); });
  reg.gauge_fn(prefix + ".pending_events",
               [this] { return static_cast<double>(pending_events()); });
}

}  // namespace floc
