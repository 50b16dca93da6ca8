#include "netsim/drop_tail.h"

namespace floc {

bool DropTailQueue::enqueue(PacketRef p, TimeSec now) {
  if (q_.size() >= capacity_) {
    note_drop(*p, DropReason::kQueueFull, now);
    return false;
  }
  q_.push_back(std::move(p));
  note_admit();
  return true;
}

PacketRef DropTailQueue::dequeue(TimeSec) {
  if (q_.empty()) return {};
  return q_.pop_front();
}

}  // namespace floc
