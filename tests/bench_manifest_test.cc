// RunManifest: every bench writes a "<bench>.manifest.json" provenance file;
// this pins that the JSON it emits is actually well-formed (util/json parses
// it) and carries the fields a results-directory audit needs — bench name,
// git revision, seed, config map, per-run records, artifact list — including
// through escaping-hostile labels.
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "util/json.h"

namespace floc::bench {
namespace {

TEST(RunManifest, JsonParsesWithAllProvenanceFields) {
  BenchArgs a;
  a.seed = 77;
  a.scale = 0.25;
  a.jobs = 3;
  RunManifest m("figXX", a);
  m.note("attack", "cbr");
  m.note("rate_mbps", 2.5);
  m.add_run("case one", 1234, 0.5);
  m.add_run("case \"two\"\\slash", 5678, 1.25);
  m.add_artifact("figXX.csv");
  m.add_artifact("figXX.trace.json");

  json::Value root;
  std::string err;
  ASSERT_TRUE(json::parse(m.json(), &root, &err)) << err << "\n" << m.json();
  ASSERT_TRUE(root.is_object());

  EXPECT_EQ(root.string_or("bench", ""), "figXX");
  EXPECT_FALSE(root.string_or("git", "").empty());
  EXPECT_DOUBLE_EQ(root.number_or("seed", -1.0), 77.0);
  EXPECT_GE(root.number_or("start_unix", -1.0), 0.0);
  EXPECT_GE(root.number_or("wall_seconds", -1.0), 0.0);

  const json::Value* config = root.get("config");
  ASSERT_NE(config, nullptr);
  ASSERT_TRUE(config->is_object());
  EXPECT_EQ(config->string_or("attack", ""), "cbr");
  EXPECT_EQ(config->string_or("rate_mbps", ""), "2.5");
  EXPECT_EQ(config->string_or("scale", ""), "0.25");
  EXPECT_EQ(config->string_or("jobs", ""), "3");

  const json::Value* runs = root.get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->items.size(), 2u);
  EXPECT_EQ(runs->items[0].string_or("label", ""), "case one");
  EXPECT_DOUBLE_EQ(runs->items[0].number_or("seed", -1.0), 1234.0);
  EXPECT_DOUBLE_EQ(runs->items[0].number_or("wall_s", -1.0), 0.5);
  // The quote/backslash label survives escaping and parses back verbatim.
  EXPECT_EQ(runs->items[1].string_or("label", ""), "case \"two\"\\slash");

  const json::Value* artifacts = root.get("artifacts");
  ASSERT_NE(artifacts, nullptr);
  ASSERT_TRUE(artifacts->is_array());
  ASSERT_EQ(artifacts->items.size(), 2u);
  EXPECT_EQ(artifacts->items[0].str, "figXX.csv");
}

TEST(RunManifest, WriteEmitsParseableFile) {
  BenchArgs a;
  RunManifest m("manifest_test_bench", a);
  m.add_run("only", 1, 0.0);
  const std::string path = m.write();
  EXPECT_EQ(path, "manifest_test_bench.manifest.json");

  std::string text, err;
  ASSERT_TRUE(telemetry::read_text_file(path, &text, &err)) << err;
  json::Value root;
  EXPECT_TRUE(json::parse(text, &root, &err)) << err;
  EXPECT_EQ(root.string_or("bench", ""), "manifest_test_bench");
  std::remove(path.c_str());
}

// BenchArgs::parse over a literal command line (argv[0] included).
BenchArgs parse(std::initializer_list<const char*> args) {
  std::vector<std::string> storage(args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  return BenchArgs::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, ParsesValidFlags) {
  const BenchArgs a = parse({"bench", "--scale", "0.5", "--seed", "7",
                             "--jobs", "3", "--metrics-out", "csv"});
  EXPECT_DOUBLE_EQ(a.scale, 0.5);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.jobs, 3);
  EXPECT_EQ(a.metrics_out, "csv");
  // --jobs 0 means "use the machine".
  EXPECT_EQ(parse({"bench", "--jobs", "0"}).jobs, runner::default_jobs());
}

TEST(BenchArgsDeathTest, RejectsNonNumericOrNonPositiveScale) {
  for (const char* bad : {"abc", "0", "-1", "1.5x", "nan", "inf", ""}) {
    EXPECT_EXIT(parse({"bench", "--scale", bad}),
                ::testing::ExitedWithCode(2), "usage")
        << "--scale '" << bad << "'";
  }
}

TEST(BenchArgsDeathTest, RejectsNegativeOrNonIntegerSeed) {
  for (const char* bad : {"-5", "1.5", "abc", "+3", ""}) {
    EXPECT_EXIT(parse({"bench", "--seed", bad}),
                ::testing::ExitedWithCode(2), "usage")
        << "--seed '" << bad << "'";
  }
}

TEST(BenchArgsDeathTest, RejectsNonIntegerJobs) {
  for (const char* bad : {"abc", "2.5", "4x", ""}) {
    EXPECT_EXIT(parse({"bench", "--jobs", bad}),
                ::testing::ExitedWithCode(2), "usage")
        << "--jobs '" << bad << "'";
  }
}

TEST(BenchArgsDeathTest, RejectsUnknownAndIncompleteFlags) {
  EXPECT_EXIT(parse({"bench", "--bogus"}), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse({"bench", "--scale"}), ::testing::ExitedWithCode(2),
              "usage");
}

}  // namespace
}  // namespace floc::bench
