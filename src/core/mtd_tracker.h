// Per-flow "mean time to drop" measurement (Eq. IV.4): MTD over a sliding
// window of k token periods. Attack flows — whose drop rate is proportional
// to their send rate — show MTDs well below the reference n_i·T_Si.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/units.h"

namespace floc {

class MtdTracker {
 public:
  // `window` = k·T_Si, the measurement horizon; may be adjusted as token
  // parameters change. `max_records` (>= 1) bounds memory per flow: the
  // drop history is a ring whose first min(4, max_records) entries are
  // inline, so a flow with few drops never allocates; past that it moves to
  // the heap and doubles as needed up to `max_records` entries, evicting the
  // oldest drop once full.
  explicit MtdTracker(TimeSec window = 1.0, std::size_t max_records = 512)
      : window_(window), max_records_(max_records) {}

  MtdTracker(const MtdTracker&) = default;
  MtdTracker& operator=(const MtdTracker&) = default;
  // A moved-from tracker is empty (its heap ring went with the move).
  MtdTracker(MtdTracker&& o) noexcept
      : window_(o.window_), max_records_(o.max_records_), inline_(o.inline_),
        heap_(std::move(o.heap_)), head_(o.head_), count_(o.count_) {
    o.clear();
  }
  MtdTracker& operator=(MtdTracker&& o) noexcept {
    window_ = o.window_;
    max_records_ = o.max_records_;
    inline_ = o.inline_;
    heap_ = std::move(o.heap_);
    head_ = o.head_;
    count_ = o.count_;
    o.clear();
    return *this;
  }

  // Forgets every drop. Keeps the window, the bound and the ring's storage,
  // so a reused tracker allocates nothing.
  void clear() { head_ = count_ = 0; }

  void set_window(TimeSec w) { window_ = w; }
  TimeSec window() const { return window_; }

  void record_drop(TimeSec now);

  // Drops inside the window ending at `now`.
  std::size_t drops_in_window(TimeSec now);

  // MTD(f) = window / drops; +infinity when no drop was observed.
  TimeSec mtd(TimeSec now);

 private:
  void prune(TimeSec now);
  void pop_oldest();
  void grow();

  static constexpr std::size_t kInlineRecords = 4;
  TimeSec* ring() { return heap_.empty() ? inline_.data() : heap_.data(); }
  std::size_t capacity() const {
    return heap_.empty() ? std::min(kInlineRecords, max_records_)
                         : heap_.size();
  }

  TimeSec window_;
  std::size_t max_records_;
  // The ring, oldest drop at head_: inline_ until it outgrows it, then
  // heap_ (capacity = heap_.size()).
  std::array<TimeSec, kInlineRecords> inline_{};
  std::vector<TimeSec> heap_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace floc
