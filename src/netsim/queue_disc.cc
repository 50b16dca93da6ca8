#include "netsim/queue_disc.h"

#include "telemetry/event_journal.h"
#include "telemetry/metrics.h"
#include "telemetry/tracing.h"
#include "util/json.h"

namespace floc {

std::uint64_t QueueDisc::drops() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : by_reason_) total += n;
  return total;
}

void QueueDisc::log_drop(const Packet& p, DropReason r, TimeSec now) {
  // FlocQueue is the only discipline that journals; every record it writes
  // names the "floc" component.
  journal_->record(now, telemetry::EventKind::kDrop, "floc",
                   std::string(), static_cast<std::uint64_t>(r),
                   static_cast<double>(p.size_bytes));
}

void QueueDisc::trace_drop(const Packet& p, DropReason r, TimeSec now) {
  // Status 0 means "completed normally", so shift the ordinal by one.
  tracer_->end_dropped(p.span.span, now,
                       static_cast<std::uint32_t>(r) + 1, to_string(r));
}

void QueueDisc::register_metrics(telemetry::MetricRegistry& reg,
                                 const std::string& prefix) const {
  register_queue_gauges(reg, prefix);
  register_drop_gauges(reg, prefix);
}

void QueueDisc::register_queue_gauges(telemetry::MetricRegistry& reg,
                                      const std::string& prefix) const {
  reg.gauge_fn(prefix + ".packets",
               [this] { return static_cast<double>(packet_count()); });
  reg.gauge_fn(prefix + ".bytes",
               [this] { return static_cast<double>(byte_count()); });
  reg.gauge_fn(prefix + ".drops",
               [this] { return static_cast<double>(drops()); });
  reg.gauge_fn(prefix + ".admissions",
               [this] { return static_cast<double>(admissions()); });
}

void QueueDisc::register_drop_gauges(telemetry::MetricRegistry& reg,
                                     const std::string& prefix) const {
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const DropReason r = static_cast<DropReason>(i);
    reg.gauge_fn(prefix + ".drops." + to_string(r), [this, r] {
      return static_cast<double>(drops_by_reason(r));
    });
  }
}

void QueueDisc::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  (void)now;
  w.begin_object();
  w.field("packets", static_cast<std::uint64_t>(packet_count()));
  w.field("bytes", static_cast<std::uint64_t>(byte_count()));
  w.field("drops", drops());
  w.field("admissions", admissions());
  w.end_object();
}

const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::kQueueFull: return "queue-full";
    case DropReason::kToken: return "token";
    case DropReason::kPreferential: return "preferential";
    case DropReason::kRandomEarly: return "random-early";
    case DropReason::kRateLimit: return "rate-limit";
    case DropReason::kCapability: return "capability";
    case DropReason::kBlacklist: return "blacklist";
    case DropReason::kOverload: return "overload";
  }
  return "?";
}

bool from_string(const std::string& name, DropReason* out) {
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const DropReason r = static_cast<DropReason>(i);
    if (name == to_string(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

}  // namespace floc
