// TimeSeriesSampler: alignment with simulated time, late-metric backfill,
// derived rate columns, CSV/JSON export.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.h"
#include "telemetry/time_series.h"

namespace floc::telemetry {
namespace {

// Minimal scheduler double satisfying the attach() contract: now() and
// schedule_at(t, cb), executing callbacks in time order.
struct FakeSched {
  TimeSec now_ = 0.0;
  std::vector<std::pair<TimeSec, std::function<void()>>> pending;

  TimeSec now() const { return now_; }
  void schedule_at(TimeSec t, std::function<void()> cb) {
    pending.emplace_back(t, std::move(cb));
  }
  void run() {
    while (!pending.empty()) {
      auto [t, cb] = std::move(pending.front());
      pending.erase(pending.begin());
      now_ = t;
      cb();
    }
  }
};

TEST(Sampler, PeriodAlignedWithSimulatedTime) {
  MetricRegistry reg;
  reg.gauge_fn("g", [] { return 1.0; });
  TimeSeriesSampler s(&reg, 0.25);

  FakeSched sched;
  sched.now_ = 0.5;
  s.attach(&sched, 2.0);
  sched.run();

  ASSERT_EQ(s.rows(), 7u);  // 0.5, 0.75, ..., 2.0
  for (std::size_t k = 0; k < s.rows(); ++k) {
    // Exactly t0 + k*period — computed, not accumulated, so no fp drift.
    EXPECT_DOUBLE_EQ(s.times()[k], 0.5 + static_cast<double>(k) * 0.25);
  }
}

TEST(Sampler, ManySamplesStayAligned) {
  MetricRegistry reg;
  reg.gauge_fn("g", [] { return 0.0; });
  // A period with no exact binary representation: accumulation would drift.
  TimeSeriesSampler s(&reg, 0.1);
  FakeSched sched;
  s.attach(&sched, 1000.0);
  sched.run();
  ASSERT_EQ(s.rows(), 10001u);
  EXPECT_DOUBLE_EQ(s.times().back(), 0.0 + 10000.0 * 0.1);
}

TEST(Sampler, RateColumns) {
  MetricRegistry reg;
  double bytes = 0.0;
  reg.gauge_fn("bytes", [&bytes] { return bytes; });
  TimeSeriesSampler s(&reg, 1.0);
  s.sample(0.0);
  bytes += 10;
  s.sample(2.0);
  bytes += 30;
  s.sample(4.0);

  s.add_rate_column("bytes");
  EXPECT_TRUE(std::isnan(s.value(0, "bytes.rate")));
  EXPECT_DOUBLE_EQ(s.value(1, "bytes.rate"), 5.0);   // 10 over 2s
  EXPECT_DOUBLE_EQ(s.value(2, "bytes.rate"), 15.0);  // 30 over 2s
}

TEST(Sampler, LateMetricsBackfillNaN) {
  MetricRegistry reg;
  reg.gauge_fn("early", [] { return 1.0; });
  TimeSeriesSampler s(&reg, 1.0);
  s.sample(0.0);
  reg.gauge_fn("late", [] { return 2.0; });
  s.sample(1.0);

  EXPECT_DOUBLE_EQ(s.value(0, "early"), 1.0);
  EXPECT_TRUE(std::isnan(s.value(0, "late")));
  EXPECT_DOUBLE_EQ(s.value(1, "late"), 2.0);
  EXPECT_TRUE(std::isnan(s.value(0, "no-such-column")));
}

TEST(Sampler, CsvAndJsonExport) {
  MetricRegistry reg;
  double n = 0.0;
  reg.gauge_fn("n", [&n] { return n; });
  TimeSeriesSampler s(&reg, 1.0);
  s.sample(0.0);
  reg.gauge_fn("late", [] { return 7.0; });
  n += 3;
  s.sample(1.0);

  const std::string csv = s.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "time,n,late");
  // NaN backfill renders as an empty CSV cell and a JSON null.
  EXPECT_NE(csv.find("0,0,\n"), std::string::npos) << csv;  // row 0: late NaN
  EXPECT_NE(csv.find("1,3,7"), std::string::npos) << csv;   // row 1 complete
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"late\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"n\": 3"), std::string::npos) << json;
}

TEST(Sampler, WriteCsvRoundTrips) {
  MetricRegistry reg;
  reg.gauge_fn("g", [] { return 5.0; });
  TimeSeriesSampler s(&reg, 1.0);
  s.sample(0.0);
  const std::string path = ::testing::TempDir() + "floc_sampler_test.csv";
  ASSERT_TRUE(s.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(std::string(buf).find("time,g"), std::string::npos);
}

}  // namespace
}  // namespace floc::telemetry
