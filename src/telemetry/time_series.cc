#include "telemetry/time_series.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "telemetry/file_util.h"

namespace floc::telemetry {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

TimeSeriesSampler::TimeSeriesSampler(MetricRegistry* registry, TimeSec period)
    : registry_(registry), period_(period) {}

void TimeSeriesSampler::refresh_columns() {
  // The registry only appends, so existing column indices never move; new
  // metrics extend the column list at the tail.
  const auto& ms = registry_->metrics();
  for (std::size_t i = columns_.size(); i < ms.size(); ++i) {
    columns_.push_back(ms[i].name);
  }
}

void TimeSeriesSampler::sample(TimeSec now) {
  refresh_columns();
  Row row;
  row.values.reserve(columns_.size());
  for (const auto& m : registry_->metrics()) {
    row.values.push_back(m.fn ? m.fn() : kNaN);
  }
  times_.push_back(now);
  rows_.push_back(std::move(row));
}

void TimeSeriesSampler::add_rate_column(const std::string& name) {
  if (std::find(rate_columns_.begin(), rate_columns_.end(), name) ==
      rate_columns_.end()) {
    rate_columns_.push_back(name);
  }
}

double TimeSeriesSampler::value(std::size_t row, const std::string& column) const {
  if (row >= rows_.size()) return kNaN;
  // Derived rate column?
  for (const std::string& src : rate_columns_) {
    if (column == src + ".rate") {
      if (row == 0) return kNaN;
      const double v1 = value(row, src);
      const double v0 = value(row - 1, src);
      const double dt = times_[row] - times_[row - 1];
      return dt > 0.0 ? (v1 - v0) / dt : kNaN;
    }
  }
  const auto it = std::find(columns_.begin(), columns_.end(), column);
  if (it == columns_.end()) return kNaN;
  const std::size_t col = static_cast<std::size_t>(it - columns_.begin());
  if (col >= rows_[row].values.size()) return kNaN;  // registered later
  return rows_[row].values[col];
}

std::string TimeSeriesSampler::to_csv() const {
  std::string out = "time";
  for (const std::string& c : columns_) {
    out += ',';
    out += c;
  }
  for (const std::string& src : rate_columns_) {
    out += ',';
    out += src;
    out += ".rate";
  }
  out += '\n';
  char buf[64];
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::snprintf(buf, sizeof(buf), "%.9g", times_[r]);
    out += buf;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const double v = c < rows_[r].values.size() ? rows_[r].values[c] : kNaN;
      if (std::isnan(v)) {
        out += ",";
      } else {
        std::snprintf(buf, sizeof(buf), ",%.9g", v);
        out += buf;
      }
    }
    for (const std::string& src : rate_columns_) {
      const double v = value(r, src + ".rate");
      if (std::isnan(v)) {
        out += ",";
      } else {
        std::snprintf(buf, sizeof(buf), ",%.9g", v);
        out += buf;
      }
    }
    out += '\n';
  }
  return out;
}

std::string TimeSeriesSampler::to_json() const {
  std::string out = "[\n";
  char buf[64];
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += r == 0 ? "  {" : ",\n  {";
    std::snprintf(buf, sizeof(buf), "\"time\": %.9g", times_[r]);
    out += buf;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const double v = c < rows_[r].values.size() ? rows_[r].values[c] : kNaN;
      out += ", \"";
      out += columns_[c];
      out += "\": ";
      if (std::isnan(v)) {
        out += "null";
      } else {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        out += buf;
      }
    }
    for (const std::string& src : rate_columns_) {
      const double v = value(r, src + ".rate");
      out += ", \"";
      out += src;
      out += ".rate\": ";
      if (std::isnan(v)) {
        out += "null";
      } else {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        out += buf;
      }
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

bool TimeSeriesSampler::write_csv(const std::string& path) const {
  return write_text_file(path, to_csv());
}

namespace {
bool has_suffix(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}
}  // namespace

bool TimeSeriesSampler::save(const std::string& path, std::string* err) const {
  return write_text_file(path, has_suffix(path, ".json") ? to_json() : to_csv(),
                         err);
}

}  // namespace floc::telemetry
