// Per-flow "mean time to drop" measurement (Eq. IV.4): MTD over a sliding
// window of k token periods. Attack flows — whose drop rate is proportional
// to their send rate — show MTDs well below the reference n_i·T_Si.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "util/units.h"

namespace floc {

class MtdTracker {
 public:
  // `window` = k·T_Si, the measurement horizon; may be adjusted as token
  // parameters change. `max_records` (>= 1) bounds memory per flow: the
  // drop history is a ring that allocates nothing before the first drop,
  // then doubles as needed up to `max_records` entries, evicting the oldest
  // drop once full.
  explicit MtdTracker(TimeSec window = 1.0, std::size_t max_records = 512)
      : window_(window), max_records_(max_records) {}

  void set_window(TimeSec w) { window_ = w; }
  TimeSec window() const { return window_; }

  void record_drop(TimeSec now);

  // Drops inside the window ending at `now`.
  std::size_t drops_in_window(TimeSec now);

  // MTD(f) = window / drops; +infinity when no drop was observed.
  TimeSec mtd(TimeSec now);

  std::size_t total_drops() const { return total_drops_; }

 private:
  void prune(TimeSec now);
  void pop_oldest();
  void grow();

  TimeSec window_;
  std::size_t max_records_;
  std::vector<TimeSec> ring_;  // capacity = ring_.size(); oldest at head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t total_drops_ = 0;
};

}  // namespace floc
