#include "telemetry/flight_recorder.h"

#include "telemetry/event_journal.h"
#include "telemetry/file_util.h"
#include "telemetry/metrics.h"
#include "telemetry/tracing.h"
#include "util/json.h"

namespace floc::telemetry {

FlightRecorder::FlightRecorder(const MetricRegistry* registry)
    : FlightRecorder(registry, Config()) {}

FlightRecorder::FlightRecorder(const MetricRegistry* registry, Config cfg)
    : registry_(registry), cfg_(cfg) {}

void FlightRecorder::add_state(std::string name, StateDumper fn) {
  dumpers_.emplace_back(std::move(name), std::move(fn));
}

void FlightRecorder::sample(TimeSec now) {
  SampleRow row;
  row.time = now;
  if (registry_ != nullptr) {
    const auto& ms = registry_->metrics();
    row.values.reserve(ms.size());
    for (const auto& m : ms) row.values.push_back(m.read());
  }
  ring_.push_back(std::move(row));
  while (ring_.size() > cfg_.metric_ring) ring_.pop_front();
}

const FlightRecorder::SampleRow* FlightRecorder::bracket(TimeSec t) const {
  if (ring_.empty()) return nullptr;
  const SampleRow* best = &ring_.front();  // clipped-window fallback
  for (const SampleRow& row : ring_) {
    if (row.time > t) break;
    best = &row;
  }
  return best;
}

const IncidentBundle* FlightRecorder::capture(const IncidentTrigger& trig) {
  ++captured_total_;
  if (incidents_.size() >= cfg_.max_incidents) {
    ++suppressed_;
    return nullptr;
  }

  IncidentBundle b;
  b.trigger = trig;
  const TimeSec now = trig.time;

  const SampleRow* s = bracket(now - cfg_.short_window);
  const SampleRow* l = bracket(now - cfg_.long_window);
  b.short_since = s != nullptr ? s->time : -1.0;
  b.long_since = l != nullptr ? l->time : -1.0;
  if (registry_ != nullptr) {
    const auto& ms = registry_->metrics();
    b.metrics.reserve(ms.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
      MetricDelta d;
      d.name = ms[i].name;
      d.value = ms[i].read();
      // Metrics registered after a row was sampled have no column there.
      if (s != nullptr && i < s->values.size()) {
        d.have_short = true;
        d.delta_short = d.value - s->values[i];
      }
      if (l != nullptr && i < l->values.size()) {
        d.have_long = true;
        d.delta_long = d.value - l->values[i];
      }
      b.metrics.push_back(std::move(d));
    }
  }

  if (journal_ != nullptr) {
    b.journal_total = journal_->total();
    const auto& events = journal_->events();
    const std::size_t n =
        events.size() > cfg_.journal_tail ? cfg_.journal_tail : events.size();
    b.journal_tail.assign(events.end() - static_cast<std::ptrdiff_t>(n),
                          events.end());
  }

  if (tracer_ != nullptr) {
    const auto& spans = tracer_->spans();
    const std::size_t n =
        spans.size() > cfg_.span_tail ? cfg_.span_tail : spans.size();
    b.spans.assign(spans.end() - static_cast<std::ptrdiff_t>(n), spans.end());
  }

  b.states.reserve(dumpers_.size());
  for (const auto& [name, fn] : dumpers_) {
    json::JsonWriter w;
    fn(w, now);
    b.states.emplace_back(name, w.str());
  }

  incidents_.push_back(std::move(b));
  return &incidents_.back();
}

std::string FlightRecorder::to_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.field("schema", "floc-incident-v1");
  w.field("bench", bench_);
  w.field("captured_total", captured_total_);
  w.field("suppressed", suppressed_);
  w.key("incidents").begin_array();
  for (const IncidentBundle& b : incidents_) b.to_json(w);
  w.end_array();
  w.end_object();
  return w.str();
}

bool FlightRecorder::save(const std::string& path, std::string* err) const {
  return write_text_file(path, to_json(), err);
}

}  // namespace floc::telemetry
