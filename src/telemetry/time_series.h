// TimeSeriesSampler: periodic snapshots of every registered metric into an
// in-memory time series, with CSV/JSON export.
//
// The sampler is driven by the simulation clock, not wall time: attach() to
// any scheduler exposing `now()` / `schedule_at(t, cb)` (the netsim
// Simulator, or a test double) and it samples at exactly t0, t0+period,
// t0+2*period, ... — sample times are computed as t0 + k*period from the
// attach time, never accumulated, so long runs stay aligned with simulated
// time to fp precision.
//
// Columns: one per registered metric (a polled gauge, evaluated at each
// sample). Metrics registered after sampling started join with NaN backfill
// for the rows they missed. Cumulative gauges sample cumulatively;
// add_rate_column() derives a per-interval rate column "<name>.rate" at
// export/query time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "util/units.h"

namespace floc::telemetry {

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(MetricRegistry* registry, TimeSec period);

  // Snapshot every registered metric at `now` (one row). Usable standalone
  // (tests, manual schedules) or via attach().
  void sample(TimeSec now);

  // Drive sample() off a simulation scheduler every `period` until `until`
  // (first sample at the current time). Sched must outlive the run.
  template <typename Sched>
  void attach(Sched* sched, TimeSec until) {
    sample(sched->now());
    schedule_next(sched, sched->now(), until, 1);
  }

  TimeSec period() const { return period_; }
  std::size_t rows() const { return times_.size(); }
  const std::vector<TimeSec>& times() const { return times_; }
  const std::vector<std::string>& columns() const { return columns_; }

  // Derived per-interval rate column over a sampled cumulative metric:
  // rate[i] = (v[i] - v[i-1]) / (t[i] - t[i-1]), NaN for row 0. Call any
  // time before export/query; `name` must be a sampled column.
  void add_rate_column(const std::string& name);

  // Value at (row, column); NaN when the column was not yet registered at
  // that row or the column is unknown.
  double value(std::size_t row, const std::string& column) const;

  // header line "time,<col>,<col>,..." then one row per sample.
  std::string to_csv() const;
  // [{"time": t, "<col>": v, ...}, ...]; NaN exported as null.
  std::string to_json() const;
  // Write to_csv() to `path`; returns false on I/O failure.
  bool write_csv(const std::string& path) const;

  // Write the series to `path`, choosing the format from the extension
  // (".json" -> to_json(), anything else -> to_csv()). On failure returns
  // false and fills `err` ("<path>: <strerror>") when non-null, so benches
  // can report instead of silently producing nothing.
  bool save(const std::string& path, std::string* err = nullptr) const;

 private:
  template <typename Sched>
  void schedule_next(Sched* sched, TimeSec t0, TimeSec until, std::uint64_t k) {
    const TimeSec t = t0 + static_cast<double>(k) * period_;
    if (t > until) return;
    sched->schedule_at(t, [this, sched, t0, until, k] {
      sample(sched->now());
      schedule_next(sched, t0, until, k + 1);
    });
  }

  void refresh_columns();
  // Matrix cell with NaN default; row data is dense per row.
  struct Row {
    std::vector<double> values;  // aligned with columns_ prefix at sample time
  };

  MetricRegistry* registry_;
  TimeSec period_;
  std::vector<std::string> columns_;      // stable order, grows at the tail
  std::vector<TimeSec> times_;
  std::vector<Row> rows_;
  std::vector<std::string> rate_columns_;  // source column names
};

}  // namespace floc::telemetry
