// FlightRecorder: pre-incident metric ring bounding, short/long-window
// delta bracketing (including clipped windows), journal/span tails, state
// dumps, max_incidents suppression accounting, and the bundle-file contract
// (parseable by util/json, no wall-clock fields, byte-identical across
// identical runs).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/event_journal.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/tracing.h"
#include "util/json.h"

namespace floc::telemetry {
namespace {

IncidentTrigger alert_at(TimeSec t, const std::string& name) {
  IncidentTrigger trig;
  trig.source = IncidentTrigger::Source::kAlert;
  trig.time = t;
  trig.name = name;
  trig.detail = "test";
  trig.observed = 1.0;
  return trig;
}

TEST(FlightRecorder, RingIsBoundedAndDeltasBracketTheWindows) {
  MetricRegistry reg;
  double drops = 0.0;
  reg.gauge_fn("q.drops", [&drops] { return drops; });
  FlightRecorder::Config cfg;
  cfg.metric_ring = 8;
  cfg.short_window = 2.0;
  cfg.long_window = 10.0;
  FlightRecorder rec(&reg, cfg);

  // One drop per second, sampled each second: t=0..30 -> 31 rows offered,
  // ring keeps the last 8 (t=23..30).
  for (double t = 0.0; t <= 30.0; t += 1.0) {
    drops += 1;
    rec.sample(t);
  }
  EXPECT_EQ(rec.ring_rows(), 8u);

  const IncidentBundle* b = rec.capture(alert_at(30.0, "storm"));
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->metrics.size(), 1u);
  EXPECT_EQ(b->metrics[0].name, "q.drops");
  // Short window brackets cleanly: value 31 now vs 29 at t=28.
  EXPECT_TRUE(b->metrics[0].have_short);
  EXPECT_DOUBLE_EQ(b->short_since, 28.0);
  EXPECT_DOUBLE_EQ(b->metrics[0].delta_short, 2.0);
  // The long window (t=20) reaches past the ring: the delta clips to the
  // oldest kept row (t=23) and long_since records the clip.
  EXPECT_TRUE(b->metrics[0].have_long);
  EXPECT_DOUBLE_EQ(b->long_since, 23.0);
  EXPECT_DOUBLE_EQ(b->metrics[0].delta_long, 7.0);
}

TEST(FlightRecorder, EmptyRingCapturesValuesWithoutDeltas) {
  MetricRegistry reg;
  reg.gauge_fn("q.drops", [] { return 5.0; });
  FlightRecorder rec(&reg);
  const IncidentBundle* b = rec.capture(alert_at(1.0, "cold"));
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(b->metrics[0].value, 5.0);
  EXPECT_FALSE(b->metrics[0].have_short);
  EXPECT_FALSE(b->metrics[0].have_long);
  EXPECT_LT(b->short_since, 0.0);
}

TEST(FlightRecorder, LateRegisteredMetricsHaveNoDeltaAgainstOldRows) {
  MetricRegistry reg;
  reg.gauge_fn("first", [] { return 0.0; });
  FlightRecorder rec(&reg);
  rec.sample(1.0);  // one-column row
  // Registers after the row was sampled.
  reg.gauge_fn("second", [] { return 3.0; });
  const IncidentBundle* b = rec.capture(alert_at(2.0, "late"));
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->metrics.size(), 2u);
  EXPECT_TRUE(b->metrics[0].have_short);
  EXPECT_FALSE(b->metrics[1].have_short) << "no column to bracket against";
  EXPECT_DOUBLE_EQ(b->metrics[1].value, 3.0);
}

TEST(FlightRecorder, MaxIncidentsSuppressesButKeepsCounting) {
  MetricRegistry reg;
  FlightRecorder::Config cfg;
  cfg.max_incidents = 2;
  FlightRecorder rec(&reg, cfg);
  EXPECT_NE(rec.capture(alert_at(1.0, "a")), nullptr);
  EXPECT_NE(rec.capture(alert_at(2.0, "b")), nullptr);
  EXPECT_EQ(rec.capture(alert_at(3.0, "c")), nullptr);
  EXPECT_EQ(rec.incidents().size(), 2u);
  EXPECT_EQ(rec.captured_total(), 3u);
  EXPECT_EQ(rec.suppressed(), 1u);
}

TEST(FlightRecorder, BundlesCarryJournalTailSpansAndStateDumps) {
  MetricRegistry reg;
  EventJournal journal;
  Tracer tracer;
  FlightRecorder::Config cfg;
  cfg.journal_tail = 2;
  cfg.span_tail = 2;
  FlightRecorder rec(&reg, cfg);
  rec.set_journal(&journal);
  rec.set_tracer(&tracer);
  rec.add_state("widget", [](json::JsonWriter& w, TimeSec now) {
    w.begin_object();
    w.field("now", now);
    w.field("gears", 3);
    w.end_object();
  });

  for (int i = 0; i < 5; ++i) {
    journal.record(static_cast<double>(i), EventKind::kModeTransition, "floc",
                   "tick", static_cast<std::uint64_t>(i));
    const SpanId id = tracer.begin(static_cast<double>(i), 7, 0,
                                   SpanKind::kQueue, 1, 2);
    tracer.end(id, static_cast<double>(i) + 0.5);
  }

  const IncidentBundle* b = rec.capture(alert_at(5.0, "full"));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->journal_total, 5u);
  ASSERT_EQ(b->journal_tail.size(), 2u);  // tail = the newest events
  EXPECT_EQ(b->journal_tail.back().a, 4u);
  ASSERT_EQ(b->spans.size(), 2u);
  EXPECT_DOUBLE_EQ(b->spans.back().begin, 4.0);
  ASSERT_EQ(b->states.size(), 1u);
  EXPECT_EQ(b->states[0].first, "widget");
  json::Value state;
  ASSERT_TRUE(json::parse(b->states[0].second, &state));
  EXPECT_DOUBLE_EQ(state.number_or("now", -1.0), 5.0);
  EXPECT_DOUBLE_EQ(state.number_or("gears", -1.0), 3.0);
}

TEST(FlightRecorder, SavedFileParsesAndHoldsNoWallClockFields) {
  MetricRegistry reg;
  reg.gauge_fn("q.drops", [] { return 2.0; });
  FlightRecorder rec(&reg);
  rec.set_bench("unit_bench");
  rec.add_state("q", [](json::JsonWriter& w, TimeSec) {
    w.begin_object();
    w.field("packets", 1);
    w.end_object();
  });
  rec.sample(1.0);
  rec.capture(alert_at(2.0, "saved"));

  const std::string path = "flight_recorder_test.incident.json";
  std::string err;
  ASSERT_TRUE(rec.save(path, &err)) << err;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());

  json::Value v;
  ASSERT_TRUE(json::parse(buf.str(), &v, &err)) << err;
  EXPECT_EQ(v.string_or("schema", ""), "floc-incident-v1");
  EXPECT_EQ(v.string_or("bench", ""), "unit_bench");
  const json::Value* incidents = v.get("incidents");
  ASSERT_NE(incidents, nullptr);
  ASSERT_EQ(incidents->items.size(), 1u);
  const json::Value& inc = incidents->items[0];
  const json::Value* trig = inc.get("trigger");
  ASSERT_NE(trig, nullptr);
  EXPECT_EQ(trig->string_or("source", ""), "alert");
  EXPECT_EQ(trig->string_or("name", ""), "saved");

  // The determinism contract: nothing in a bundle may come from the wall
  // clock (manifests carry wall time; incident bundles must not).
  for (const char* banned : {"wall", "unix", "start_ns", "clock_ns"}) {
    EXPECT_EQ(buf.str().find(banned), std::string::npos)
        << "wall-clock field '" << banned << "' in gated bundle content";
  }
}

TEST(FlightRecorder, IdenticalRunsSerializeByteIdentically) {
  auto run = [] {
    MetricRegistry reg;
    double drops = 0.0;
    reg.gauge_fn("q.drops", [&drops] { return drops; });
    FlightRecorder rec(&reg);
    rec.set_bench("twin");
    for (double t = 0.0; t < 5.0; t += 1.0) {
      drops += 3;
      rec.sample(t);
    }
    rec.capture(alert_at(4.5, "twin_alert"));
    return rec.to_json();
  };
  EXPECT_EQ(run(), run());
}

TEST(FlightRecorder, TriggerSourceNamesExist) {
  EXPECT_STREQ(to_string(IncidentTrigger::Source::kAlert), "alert");
  EXPECT_STREQ(to_string(IncidentTrigger::Source::kInvariant), "invariant");
  EXPECT_STREQ(to_string(IncidentTrigger::Source::kGate), "gate");
  EXPECT_STREQ(to_string(IncidentTrigger::Source::kManual), "manual");
}

}  // namespace
}  // namespace floc::telemetry
