#include "telemetry/alerts.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/file_util.h"
#include "telemetry/flight_recorder.h"

namespace floc::telemetry {

const char* to_string(AlertKind k) {
  switch (k) {
    case AlertKind::kRateRatio: return "rate-ratio";
    case AlertKind::kThreshold: return "threshold";
  }
  return "?";
}

void AlertEngine::add_rule(AlertRule rule) {
  RuleState rs;
  rs.rule = std::move(rule);
  rules_.push_back(std::move(rs));
}

double AlertEngine::window_rate(const RuleState& rs, TimeSec span) {
  if (rs.window.size() < 2) return 0.0;
  const auto& newest = rs.window.back();
  const TimeSec cutoff = newest.first - span;
  // Oldest sample at or after the cutoff — the window front is pruned to
  // just-cover long_window, so this scan is O(short samples), and the
  // denominator uses the ACTUAL elapsed span (a window still filling up
  // reports the rate over the data it has, not an inflated one).
  const std::pair<TimeSec, double>* base = &rs.window.front();
  for (const auto& s : rs.window) {
    if (s.first >= cutoff) {
      base = &s;
      break;
    }
  }
  const TimeSec dt = newest.first - base->first;
  if (dt <= 0.0) return 0.0;
  return (newest.second - base->second) / dt;
}

void AlertEngine::evaluate(RuleState& rs, TimeSec now) {
  double observed = 0.0;
  bool fire = rs.firing;
  if (rs.rule.kind == AlertKind::kRateRatio) {
    const double short_rate = window_rate(rs, rs.rule.short_window);
    const double long_rate = window_rate(rs, rs.rule.long_window);
    observed = short_rate;
    if (!rs.firing) {
      // Fire on a genuine burst: above the idle floor AND `ratio` times the
      // long-window baseline. A baseline of ~0 (burst from idle) fires on
      // the floor alone — that is the storm case, not an exemption.
      fire = short_rate >= rs.rule.min_rate &&
             short_rate >= rs.rule.ratio * long_rate;
    } else {
      fire = short_rate >= rs.rule.min_rate &&
             short_rate > rs.rule.clear_ratio * long_rate;
    }
  } else {
    observed = rs.window.empty() ? 0.0 : rs.window.back().second;
    fire = rs.firing ? observed > rs.rule.clear_threshold
                     : observed >= rs.rule.threshold;
  }
  if (fire == rs.firing) return;
  rs.firing = fire;
  if (fire) {
    ++rs.fire_edges;
    ++fired_total_;
    if (recorder_ != nullptr) {
      IncidentTrigger trig;
      trig.source = IncidentTrigger::Source::kAlert;
      trig.time = now;
      trig.name = rs.rule.name;
      trig.detail = std::string("metric=") + rs.rule.metric +
                    " kind=" + to_string(rs.rule.kind);
      trig.observed = observed;
      recorder_->capture(trig);
    }
  }
  history_.push_back(AlertEvent{now, rs.rule.name, fire, observed});
}

void AlertEngine::sample(TimeSec now) {
  for (RuleState& rs : rules_) {
    rs.window.emplace_back(now, reg_->value(rs.rule.metric));
    // Keep one sample older than the long window so window_rate's bracketing
    // base never vanishes mid-window.
    const TimeSec keep_from = now - rs.rule.long_window;
    while (rs.window.size() > 2 && rs.window[1].first <= keep_from) {
      rs.window.pop_front();
    }
    evaluate(rs, now);
  }
}

bool AlertEngine::firing(const std::string& rule) const {
  for (const RuleState& rs : rules_) {
    if (rs.rule.name == rule) return rs.firing;
  }
  return false;
}

std::uint64_t AlertEngine::fired(const std::string& rule) const {
  for (const RuleState& rs : rules_) {
    if (rs.rule.name == rule) return rs.fire_edges;
  }
  return 0;
}

std::uint64_t AlertEngine::fired_total() const { return fired_total_; }

std::string AlertEngine::to_json() const {
  std::string out = "{\n\"rules\": [\n";
  char buf[192];
  bool first = true;
  for (const RuleState& rs : rules_) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"metric\": \"%s\", \"kind\": \"%s\", "
                  "\"firing\": %s, \"fired\": %llu}",
                  rs.rule.name.c_str(), rs.rule.metric.c_str(),
                  to_string(rs.rule.kind), rs.firing ? "true" : "false",
                  static_cast<unsigned long long>(rs.fire_edges));
    out += buf;
  }
  out += "\n],\n\"events\": [\n";
  first = true;
  for (const AlertEvent& e : history_) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "  {\"time\": %.9g, \"rule\": \"%s\", \"firing\": %s, "
                  "\"observed\": %.9g}",
                  e.time, e.rule.c_str(), e.firing ? "true" : "false",
                  e.observed);
    out += buf;
  }
  out += "\n]\n}\n";
  return out;
}

bool AlertEngine::save(const std::string& path, std::string* err) const {
  return write_text_file(path, to_json(), err);
}

namespace {

// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
// map dots (and anything else illegal) to '_'.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9' && !out.empty()) || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("_") : out;
}

// Label VALUES are free-form UTF-8; the text-format spec requires exactly
// backslash -> \\, double quote -> \", and line feed -> \n to be escaped
// (other bytes, tabs included, pass through raw).
std::string prom_label_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string AlertEngine::render_prometheus(const MetricRegistry& reg) {
  std::string out;
  out.reserve(reg.size() * 64);
  char buf[64];
  for (const auto& m : reg.metrics()) {
    // `# HELP` first, then `# TYPE`, then the sample line, per the
    // Prometheus text-format grammar. The help string carries the original
    // dotted registry name so operators can map an exported series back to
    // its in-process metric.
    const std::string name = prom_name(m.name);
    out += "# HELP " + name + " FLoc metric " + m.name + "\n";
    out += "# TYPE " + name + " gauge\n";
    std::snprintf(buf, sizeof(buf), " %.9g\n", m.read());
    out += name;
    out += buf;
  }
  return out;
}

std::string AlertEngine::render_prometheus_with_alerts() const {
  std::string out =
      reg_ != nullptr ? render_prometheus(*reg_) : std::string();
  if (!rules_.empty()) {
    out += "# HELP floc_alert_firing 1 while the named alert rule fires\n";
    out += "# TYPE floc_alert_firing gauge\n";
    for (const RuleState& rs : rules_) {
      // The rule name goes in as a label VALUE, escaped per the spec —
      // mangling through prom_name here would silently alias rules like
      // "a.b" and "a b".
      out += "floc_alert_firing{alert=\"" + prom_label_escape(rs.rule.name) +
             "\"} ";
      out += rs.firing ? "1\n" : "0\n";
    }
  }
  return out;
}

}  // namespace floc::telemetry
