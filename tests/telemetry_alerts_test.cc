// AlertEngine: rate-ratio storm detection with min-rate floor and
// fire/clear hysteresis, threshold rules, JSON export, and the Prometheus
// text rendering (name sanitization, gauge shape, label escaping).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/alerts.h"
#include "telemetry/metrics.h"

namespace floc::telemetry {
namespace {

AlertRule storm_rule() {
  AlertRule r;
  r.name = "pkt_storm";
  r.metric = "link.packets";
  r.kind = AlertKind::kRateRatio;
  r.short_window = 10.0;
  r.long_window = 60.0;
  r.ratio = 3.0;
  r.clear_ratio = 1.5;
  r.min_rate = 10.0;
  return r;
}

TEST(Alerts, RateRatioFiresOnBurstAndClearsWithHysteresis) {
  MetricRegistry reg;
  double pkts = 0.0;
  reg.gauge_fn("link.packets", [&pkts] { return pkts; });
  AlertEngine eng(&reg);
  eng.add_rule(storm_rule());

  // 120s of steady 20 pkt/s baseline: never fires.
  double t = 0.0;
  for (; t < 120.0; t += 1.0) {
    pkts += 20;
    eng.sample(t);
    ASSERT_FALSE(eng.firing("pkt_storm")) << "t=" << t;
  }
  EXPECT_EQ(eng.fired("pkt_storm"), 0u);

  // Burst to 200 pkt/s: short-window rate races ahead of the long average.
  for (; t < 140.0; t += 1.0) {
    pkts += 200;
    eng.sample(t);
  }
  EXPECT_TRUE(eng.firing("pkt_storm"));
  EXPECT_EQ(eng.fired("pkt_storm"), 1u);

  // Rate hovers at 2x the (now elevated) long average: above clear_ratio,
  // so the alert stays latched — no flapping.
  const std::uint64_t edges_at_peak = eng.fired_total();
  for (; t < 150.0; t += 1.0) {
    pkts += 80;
    eng.sample(t);
  }
  EXPECT_EQ(eng.fired_total(), edges_at_peak) << "alert flapped";

  // Back to baseline: short rate falls under clear_ratio x long — clears.
  for (; t < 220.0; t += 1.0) {
    pkts += 20;
    eng.sample(t);
  }
  EXPECT_FALSE(eng.firing("pkt_storm"));
  EXPECT_EQ(eng.fired("pkt_storm"), 1u);  // one full fire/clear cycle
  // History holds both edges, in order.
  ASSERT_GE(eng.history().size(), 2u);
  EXPECT_TRUE(eng.history().front().firing);
  EXPECT_FALSE(eng.history().back().firing);
}

TEST(Alerts, MinRateFloorSuppressesIdleNoise) {
  MetricRegistry reg;
  double pkts = 0.0;
  reg.gauge_fn("link.packets", [&pkts] { return pkts; });
  AlertEngine eng(&reg);
  eng.add_rule(storm_rule());  // min_rate = 10/s

  // From a dead-idle baseline, a trickle of 5 pkt/s is an infinite ratio —
  // but under the floor, so it must not page.
  double t = 0.0;
  for (; t < 90.0; t += 1.0) {
    eng.sample(t);  // zero traffic
  }
  for (; t < 120.0; t += 1.0) {
    pkts += 5;
    eng.sample(t);
    ASSERT_FALSE(eng.firing("pkt_storm")) << "t=" << t;
  }

  // A genuine burst from idle exceeds the floor and fires even though the
  // long average is ~0 (the floor alone gates burst-from-idle).
  for (; t < 135.0; t += 1.0) {
    pkts += 100;
    eng.sample(t);
  }
  EXPECT_TRUE(eng.firing("pkt_storm"));
}

TEST(Alerts, ThresholdRuleWithHysteresis) {
  MetricRegistry reg;
  double occupancy = 0.0;
  reg.gauge_fn("floc.state.occupancy", [&] { return occupancy; });

  AlertRule r;
  r.name = "state_pressure";
  r.metric = "floc.state.occupancy";
  r.kind = AlertKind::kThreshold;
  r.threshold = 0.9;
  r.clear_threshold = 0.7;
  AlertEngine eng(&reg);
  eng.add_rule(r);

  occupancy = 0.5;
  eng.sample(1.0);
  EXPECT_FALSE(eng.firing("state_pressure"));
  occupancy = 0.95;
  eng.sample(2.0);
  EXPECT_TRUE(eng.firing("state_pressure"));
  occupancy = 0.8;  // between clear and fire: stays latched
  eng.sample(3.0);
  EXPECT_TRUE(eng.firing("state_pressure"));
  occupancy = 0.6;
  eng.sample(4.0);
  EXPECT_FALSE(eng.firing("state_pressure"));
  EXPECT_EQ(eng.fired("state_pressure"), 1u);
}

TEST(Alerts, UnknownMetricReadsAsZero) {
  MetricRegistry reg;
  AlertEngine eng(&reg);
  AlertRule r = storm_rule();
  r.metric = "never.registered";
  eng.add_rule(r);
  for (double t = 0.0; t < 200.0; t += 1.0) eng.sample(t);
  EXPECT_FALSE(eng.firing("pkt_storm"));
  EXPECT_EQ(eng.fired_total(), 0u);
}

TEST(Alerts, JsonExportAndSave) {
  MetricRegistry reg;
  double pkts = 0.0;
  reg.gauge_fn("link.packets", [&pkts] { return pkts; });
  AlertEngine eng(&reg);
  eng.add_rule(storm_rule());
  double t = 0.0;
  for (; t < 90.0; t += 1.0) {
    pkts += 20;
    eng.sample(t);
  }
  for (; t < 110.0; t += 1.0) {
    pkts += 300;
    eng.sample(t);
  }
  ASSERT_TRUE(eng.firing("pkt_storm"));

  const std::string json = eng.to_json();
  EXPECT_NE(json.find("\"rules\""), std::string::npos);
  EXPECT_NE(json.find("\"pkt_storm\""), std::string::npos);
  EXPECT_NE(json.find("\"rate-ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"firing\": true"), std::string::npos);

  const std::string path = "alerts_test_out.alerts.json";
  std::string err;
  ASSERT_TRUE(eng.save(path, &err)) << err;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json);
  std::remove(path.c_str());
}

TEST(Alerts, PrometheusRenderingSanitizesAndTypesMetrics) {
  MetricRegistry reg;
  reg.gauge_fn("floc.drops.total", [] { return 7.0; });
  reg.gauge_fn("floc.state.occupancy", [] { return 0.25; });

  const std::string text = AlertEngine::render_prometheus(reg);
  // Dots become underscores.
  EXPECT_NE(text.find("floc_drops_total 7"), std::string::npos) << text;
  EXPECT_NE(text.find("floc_state_occupancy 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);

  AlertEngine eng(&reg);
  AlertRule r;
  r.name = "storm";
  r.metric = "floc.drops.total";
  eng.add_rule(r);
  const std::string with_alerts = eng.render_prometheus_with_alerts();
  EXPECT_NE(with_alerts.find("floc_alert_firing{alert=\"storm\"} 0"),
            std::string::npos)
      << with_alerts;
}

// Pins the Prometheus text-exposition grammar: every `# TYPE` is preceded
// by a `# HELP` for the same series, every exported name is legal
// ([a-zA-Z_:][a-zA-Z0-9_:]*), and help text references the original dotted
// registry name so a scrape can be traced back to its source metric.
TEST(Alerts, PrometheusExpositionGrammar) {
  MetricRegistry reg;
  reg.gauge_fn("floc.caps.issued", [] { return 3.0; });
  reg.gauge_fn("floc.window.size", [] { return 12.0; });

  const std::string text = AlertEngine::render_prometheus(reg);

  std::istringstream in(text);
  std::string line;
  std::string last_help_name;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      last_help_name = rest.substr(0, sp);
      // Help text must mention the dotted source name.
      EXPECT_NE(rest.find("floc."), std::string::npos) << line;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = rest.substr(0, sp);
      EXPECT_EQ(name, last_help_name) << "TYPE without preceding HELP: "
                                      << line;
      const std::string type = rest.substr(sp + 1);
      EXPECT_EQ(type, "gauge") << line;
    } else if (!line.empty()) {
      // Sample line: legal metric name, optional {labels}, space, value.
      const size_t sp = line.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      const size_t brace = line.find('{');
      const std::string name = line.substr(0, brace < sp ? brace : sp);
      ASSERT_FALSE(name.empty());
      auto legal_first = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
      };
      EXPECT_TRUE(legal_first(name[0])) << line;
      for (char c : name) {
        const bool ok = legal_first(c) || (c >= '0' && c <= '9');
        EXPECT_TRUE(ok) << "illegal char in exported name: " << line;
      }
      EXPECT_EQ(name.find('.'), std::string::npos) << line;
    }
  }
  // Both metrics actually rendered.
  EXPECT_NE(text.find("# HELP floc_caps_issued"), std::string::npos) << text;
  EXPECT_NE(text.find("# HELP floc_window_size"), std::string::npos);
}

// Label values in the exposition format admit any UTF-8 as long as
// backslash, double-quote and newline are escaped (\\, \", \n). Alert rule
// names flow into floc_alert_firing{alert="..."} verbatim, so hostile names
// must come out escaped and every sample must stay on one line.
TEST(Alerts, PrometheusLabelValuesEscapeHostileRuleNames) {
  MetricRegistry reg;
  reg.gauge_fn("floc.drops", [] { return 1.0; });
  AlertEngine eng(&reg);
  const char* hostile[] = {
      "quote\"inject",         // " would close the label value
      "back\\slash",           // \ would start a bogus escape
      "line\nbreak",           // a raw newline would split the sample line
      "tab\tpass",             // tabs are legal raw inside label values
  };
  for (const char* name : hostile) {
    AlertRule r;
    r.name = name;
    r.metric = "floc.drops";
    r.kind = AlertKind::kThreshold;
    r.threshold = 1000.0;
    eng.add_rule(r);
  }

  const std::string text = eng.render_prometheus_with_alerts();
  EXPECT_NE(text.find("floc_alert_firing{alert=\"quote\\\"inject\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("floc_alert_firing{alert=\"back\\\\slash\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("floc_alert_firing{alert=\"line\\nbreak\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("floc_alert_firing{alert=\"tab\tpass\"} 0"),
            std::string::npos)
      << text;

  // No label value may smuggle a raw newline, an unescaped quote, or a lone
  // backslash: every non-comment line must still parse as name{...} value.
  std::istringstream in(text);
  std::string line;
  std::size_t alert_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t brace = line.find('{');
    if (brace == std::string::npos) continue;
    ++alert_lines;
    // The line still ends with `"} <value>` — nothing broke out of the
    // quoted label value.
    EXPECT_NE(line.find("\"} "), std::string::npos) << line;
    // Any quote inside the value is preceded by a backslash.
    const size_t open = line.find('"', brace);
    const size_t close = line.rfind('"');
    ASSERT_NE(open, std::string::npos) << line;
    for (size_t i = open + 1; i < close; ++i) {
      if (line[i] == '"') {
        EXPECT_EQ(line[i - 1], '\\') << line;
      }
    }
  }
  EXPECT_EQ(alert_lines, 4u) << "a hostile name split or dropped a sample";
}

TEST(Alerts, KindNamesExist) {
  EXPECT_STREQ(to_string(AlertKind::kRateRatio), "rate-ratio");
  EXPECT_STREQ(to_string(AlertKind::kThreshold), "threshold");
}

}  // namespace
}  // namespace floc::telemetry
