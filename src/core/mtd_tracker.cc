#include "core/mtd_tracker.h"

#include <algorithm>

namespace floc {

void MtdTracker::record_drop(TimeSec now) {
  prune(now);
  if (count_ >= max_records_) pop_oldest();
  if (count_ == ring_.size()) grow();
  ring_[(head_ + count_) % ring_.size()] = now;
  ++count_;
  ++total_drops_;
}

void MtdTracker::pop_oldest() {
  head_ = (head_ + 1) % ring_.size();
  --count_;
}

void MtdTracker::grow() {
  constexpr std::size_t kFirstCapacity = 4;
  const std::size_t cap = std::min(
      max_records_, ring_.empty() ? kFirstCapacity : 2 * ring_.size());
  std::vector<TimeSec> next(cap);
  for (std::size_t i = 0; i < count_; ++i) {
    next[i] = ring_[(head_ + i) % ring_.size()];
  }
  ring_ = std::move(next);
  head_ = 0;
}

void MtdTracker::prune(TimeSec now) {
  while (count_ > 0 && ring_[head_] < now - window_) pop_oldest();
}

std::size_t MtdTracker::drops_in_window(TimeSec now) {
  prune(now);
  return count_;
}

TimeSec MtdTracker::mtd(TimeSec now) {
  prune(now);
  if (count_ == 0) return std::numeric_limits<TimeSec>::infinity();
  return window_ / static_cast<TimeSec>(count_);
}

}  // namespace floc
