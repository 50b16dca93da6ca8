#include "core/mtd_tracker.h"

#include <algorithm>

namespace floc {

void MtdTracker::record_drop(TimeSec now) {
  prune(now);
  if (count_ >= max_records_) pop_oldest();
  if (count_ == capacity()) grow();
  ring()[(head_ + count_) % capacity()] = now;
  ++count_;
}

void MtdTracker::pop_oldest() {
  head_ = (head_ + 1) % capacity();
  --count_;
}

void MtdTracker::grow() {
  const std::size_t cap = capacity();
  std::vector<TimeSec> next(std::min(max_records_, 2 * cap));
  const TimeSec* old = ring();
  for (std::size_t i = 0; i < count_; ++i) next[i] = old[(head_ + i) % cap];
  heap_ = std::move(next);
  head_ = 0;
}

void MtdTracker::prune(TimeSec now) {
  while (count_ > 0 && ring()[head_] < now - window_) pop_oldest();
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
