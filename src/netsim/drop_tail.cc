#include "netsim/drop_tail.h"

namespace floc {

bool DropTailQueue::enqueue(Packet&& p, TimeSec now) {
  if (q_.size() >= capacity_) {
    note_drop(p, DropReason::kQueueFull, now);
    return false;
  }
  q_.push_back(std::move(p));
  note_admit();
  return true;
}

std::optional<Packet> DropTailQueue::dequeue(TimeSec) {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  return p;
}

}  // namespace floc
