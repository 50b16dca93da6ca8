// Shared plumbing for the figure runner (bench/floc_figures) and the perf
// tools: flag parsing (--scale / --paper / --quick / --seed / --jobs /
// --metrics-out), the run manifest, metric export, and the common Section VI
// scenario defaults.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/scenario_runner.h"
#include "telemetry/file_util.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "topology/tree_scenario.h"
#include "util/json.h"
#include "util/seed.h"
#include "util/stats.h"

namespace floc::bench {

struct BenchArgs {
  double scale = 0.12;   // default: quick (minutes for the whole suite)
  bool paper = false;    // --paper: publication-scale parameters
  TimeSec duration = 60.0;
  TimeSec measure_start = 20.0;
  std::uint64_t seed = 1;
  int jobs = 1;          // --jobs N: scenario-grid parallelism (0 = auto)
  // --metrics-out csv|json: final-value registry export via save_metrics()
  // ("none" writes nothing).
  std::string metrics_out = "none";

  // Parses argv[1..argc). A malformed or unknown flag prints usage and
  // exits 2: a non-numeric, non-finite or non-positive --scale, a --seed
  // that is not a non-negative integer, or a non-integer --jobs.
  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
      const bool has_value = i + 1 < argc;
      if (std::strcmp(argv[i], "--paper") == 0) {
        a.paper = true;
        a.scale = 1.0;
        a.duration = 80.0;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        a.scale = 0.08;
        a.duration = 40.0;
        a.measure_start = 15.0;
      } else if (std::strcmp(argv[i], "--scale") == 0 && has_value &&
                 parse_scale(argv[i + 1], &a.scale)) {
        ++i;
      } else if (std::strcmp(argv[i], "--seed") == 0 && has_value &&
                 parse_seed(argv[i + 1], &a.seed)) {
        ++i;
      } else if (std::strcmp(argv[i], "--jobs") == 0 && has_value &&
                 parse_jobs(argv[i + 1], &a.jobs)) {
        ++i;
        if (a.jobs <= 0) a.jobs = runner::default_jobs();
      } else if (std::strcmp(argv[i], "--metrics-out") == 0 && has_value &&
                 (std::strcmp(argv[i + 1], "csv") == 0 ||
                  std::strcmp(argv[i + 1], "json") == 0 ||
                  std::strcmp(argv[i + 1], "none") == 0)) {
        a.metrics_out = argv[++i];
      } else {
        std::fprintf(stderr,
                     "usage: %s [--paper|--quick] [--scale F] [--seed N] "
                     "[--jobs N] [--metrics-out csv|json|none]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    return a;
  }

  // Seed of the `index`-th run of logical stream `salt` in this sweep.
  // Runs must derive (never offset) their seeds so every (master, run)
  // world is independent and identical at any --jobs value.
  std::uint64_t run_seed(std::uint64_t index, std::uint64_t salt = 0) const {
    return derive_seed(seed, index, salt);
  }

  // Each writes `*out` and returns whether all of `s` was a valid value;
  // the callers (parse() here, perf_suite's own parser) exit on false, so a
  // rejected value is never used.
  static bool parse_seed(const char* s, std::uint64_t* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtoull(s, &end, 10);
    // strtoull negates "-5" instead of rejecting it: require a digit first.
    return *s >= '0' && *s <= '9' && *end == '\0' && errno == 0;
  }
  static bool parse_jobs(const char* s, int* out) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    *out = static_cast<int>(v);
    return end != s && *end == '\0' && errno == 0 &&
           v >= std::numeric_limits<int>::min() &&
           v <= std::numeric_limits<int>::max();
  }

 private:
  static bool parse_scale(const char* s, double* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0' && errno == 0 && std::isfinite(*out) &&
           *out > 0.0;
  }
};

// Source revision of the running binary's checkout, for run provenance.
// "unknown" when git (or the .git directory) is unavailable.
inline std::string git_describe() {
  std::FILE* p = ::popen("git describe --always --dirty --tags 2>/dev/null",
                         "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {};
  std::string out;
  if (std::fgets(buf, sizeof(buf), p) != nullptr) out = buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

// Run manifest: one "<bench>.manifest.json" per bench run recording
// provenance — source revision, configuration, seed, wall time, and the
// artifacts the run produced — so any CSV/trace in a results directory can
// be traced back to the exact code and parameters that made it.
class RunManifest {
 public:
  RunManifest(std::string bench, const BenchArgs& a)
      : bench_(std::move(bench)),
        seed_(a.seed),
        start_unix_(std::time(nullptr)),
        start_ns_(telemetry::clock_ns()) {
    note("scale", a.scale);
    note("paper", a.paper ? "true" : "false");
    note("duration_s", a.duration);
    note("measure_start_s", a.measure_start);
    note("jobs", static_cast<double>(a.jobs));
  }

  void note(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }
  void note(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    note(key, std::string(buf));
  }

  void add_artifact(const std::string& path) { artifacts_.push_back(path); }

  // Per-run provenance of a parallel sweep: label, the seed derived for the
  // run, and its wall-clock cost. Appended on the main thread in submission
  // order after the sweep merges, so manifests are byte-stable across
  // --jobs values (apart from the timings themselves). The sum of run walls
  // versus the manifest's total wall_seconds is the sweep's speedup.
  void add_run(const std::string& label, std::uint64_t run_seed,
               double wall_seconds) {
    runs_.push_back({label, run_seed, wall_seconds});
  }

  std::string json() const {
    std::string out = "{\n";
    out += "  \"bench\": \"" + escaped(bench_) + "\",\n";
    out += "  \"git\": \"" + escaped(git_describe()) + "\",\n";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  \"seed\": %llu,\n",
                  static_cast<unsigned long long>(seed_));
    out += buf;
    std::snprintf(buf, sizeof(buf), "  \"start_unix\": %lld,\n",
                  static_cast<long long>(start_unix_));
    out += buf;
    std::snprintf(buf, sizeof(buf), "  \"wall_seconds\": %.3f,\n",
                  static_cast<double>(telemetry::clock_ns() - start_ns_) / 1e9);
    out += buf;
    out += "  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + escaped(config_[i].first) + "\": \"" +
             escaped(config_[i].second) + "\"";
    }
    out += "},\n  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (i != 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "\"seed\": %llu, \"wall_s\": %.3f}",
                    static_cast<unsigned long long>(runs_[i].seed),
                    runs_[i].wall_seconds);
      out += "{\"label\": \"" + escaped(runs_[i].label) + "\", " + buf;
    }
    out += "],\n  \"artifacts\": [";
    for (std::size_t i = 0; i < artifacts_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + escaped(artifacts_[i]) + "\"";
    }
    out += "]\n}\n";
    return out;
  }

  // Write "<bench>.manifest.json" next to the other artifacts; returns the
  // path. A manifest failure is reported, never fatal.
  std::string write() const {
    const std::string path = bench_ + ".manifest.json";
    std::string err;
    if (!telemetry::write_text_file(path, json(), &err)) {
      std::fprintf(stderr, "manifest: %s\n", err.c_str());
    }
    return path;
  }

 private:
  static std::string escaped(const std::string& s) {
    return json::JsonWriter::escaped(s);
  }

  struct RunRecord {
    std::string label;
    std::uint64_t seed;
    double wall_seconds;
  };

  std::string bench_;
  std::uint64_t seed_;
  std::time_t start_unix_;
  std::uint64_t start_ns_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<RunRecord> runs_;
  std::vector<std::string> artifacts_;
};

// Final values of a metric registry in registration order. Taken inside a
// run, while the world its gauges read is still alive.
using MetricSnapshot = std::vector<std::pair<std::string, double>>;

inline MetricSnapshot snapshot(const telemetry::MetricRegistry& reg) {
  MetricSnapshot out;
  out.reserve(reg.metrics().size());
  for (const auto& m : reg.metrics()) {
    out.emplace_back(m.name, m.read());
  }
  return out;
}

// Final-value metric export behind --metrics-out. Writes
// "<stem>.metrics.csv" (metric,value rows) or "<stem>.metrics.json" (one
// flat object). Returns the artifact path, empty when metrics_out is "none"
// or the write failed.
inline std::string save_metrics(const MetricSnapshot& metrics,
                                const BenchArgs& a, const std::string& stem) {
  if (a.metrics_out == "none") return {};
  std::string path, body;
  if (a.metrics_out == "csv") {
    path = stem + ".metrics.csv";
    body = "metric,value\n";
    char buf[48];
    for (const auto& [name, value] : metrics) {
      std::snprintf(buf, sizeof(buf), ",%.9g\n", value);
      body += name + buf;
    }
  } else {
    path = stem + ".metrics.json";
    json::JsonWriter w;
    w.begin_object();
    for (const auto& [name, value] : metrics) w.field(name, value);
    w.end_object();
    body = w.str() + "\n";
  }
  std::string err;
  if (!telemetry::write_text_file(path, body, &err)) {
    std::fprintf(stderr, "metrics-out: %s\n", err.c_str());
    return {};
  }
  return path;
}

// The Fig. 5 scenario with the bench's scale applied.
inline TreeScenarioConfig fig5_config(const BenchArgs& a) {
  TreeScenarioConfig cfg;
  cfg.scale = a.scale;
  cfg.duration = a.duration;
  cfg.measure_start = a.measure_start;
  cfg.measure_end = a.duration;
  cfg.seed = a.seed;
  return cfg;
}

// Builds and runs the Fig. 5 scenario seeded with `seed`, after `tweak`
// has edited its config.
template <typename Tweak>
std::unique_ptr<TreeScenario> run_fig5(const BenchArgs& a, std::uint64_t seed,
                                       Tweak&& tweak) {
  TreeScenarioConfig cfg = fig5_config(a);
  cfg.seed = seed;
  tweak(cfg);
  auto s = std::make_unique<TreeScenario>(cfg);
  s->run();
  return s;
}

// Class bandwidth over the measurement window, as fractions of the target
// link: legitimate flows of legitimate paths, legitimate flows inside
// attack paths, all legitimate flows, attack flows, and everything.
struct LinkShares {
  double legit_legit, legit_attack, legit, attack, util;
};

inline LinkShares link_shares(const TreeScenario& s) {
  const auto cb = s.class_bandwidth();
  const double link = s.scaled_target_bw();
  return {cb.legit_legit_bps / link, cb.legit_attack_bps / link,
          (cb.legit_legit_bps + cb.legit_attack_bps) / link,
          cb.attack_bps / link,
          (cb.legit_legit_bps + cb.legit_attack_bps + cb.attack_bps) / link};
}

// Reports a failed artifact write; an artifact failure is never fatal.
inline void warn_unless(bool ok, const char* who, const std::string& err) {
  if (!ok) std::fprintf(stderr, "%s: %s\n", who, err.c_str());
}

}  // namespace floc::bench
