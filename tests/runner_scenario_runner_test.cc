// ScenarioRunner semantics: submission-order merge under adversarial
// completion order, deterministic exception selection, inline serial mode,
// and pool reuse across wait() rounds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/scenario_runner.h"

namespace floc::runner {
namespace {

TEST(ScenarioRunner, JobsClampToAtLeastOne) {
  EXPECT_EQ(ScenarioRunner(0).jobs(), 1);
  EXPECT_EQ(ScenarioRunner(-3).jobs(), 1);
  EXPECT_EQ(ScenarioRunner(4).jobs(), 4);
  EXPECT_GE(default_jobs(), 1);
}

TEST(ScenarioRunner, SerialModeRunsInlineInSubmissionOrder) {
  ScenarioRunner pool(1);
  std::vector<int> order;
  const auto caller = std::this_thread::get_id();
  for (int i = 0; i < 8; ++i) {
    const std::size_t idx = pool.submit([&order, i, caller] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(idx, static_cast<std::size_t>(i));
  }
  pool.wait();
  EXPECT_EQ(pool.submitted(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

// Index 0 finishes last: it waits until every other index has completed,
// yet the merged results must land at their submission index. The wait
// cannot deadlock: index 0 holds one of the four workers, and the other
// three drain indices 1..11 from the FIFO queue.
TEST(RunIndexed, MergesInSubmissionOrderNotCompletionOrder) {
  constexpr std::size_t kRuns = 12;
  std::atomic<int> completions{0};
  std::vector<int> completion_rank(kRuns, -1);
  const auto results = run_indexed<std::size_t>(4, kRuns, [&](std::size_t i) {
    if (i == 0) {
      while (completions.load() < static_cast<int>(kRuns) - 1) {
        std::this_thread::yield();
      }
    }
    completion_rank[i] = completions.fetch_add(1);
    return i;
  });
  ASSERT_EQ(results.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) EXPECT_EQ(results[i], i);
  // The first-submitted index completed last.
  EXPECT_EQ(completion_rank[0], static_cast<int>(kRuns) - 1);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// The pool is sized by the work: a 2-run sweep at jobs = 16 starts at most
// two threads, not sixteen.
TEST(RunIndexed, PoolIsNoWiderThanTheWork) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads";
  }
  // A sanitizer runtime starts a helper thread with the process's first
  // spawned thread; spawn one first so `before` already counts it.
  std::thread([] {}).join();
  const std::size_t before = live_threads();
  const auto during = run_indexed<std::size_t>(
      16, 2, [](std::size_t) { return live_threads(); });
  ASSERT_EQ(during.size(), 2u);
  for (std::size_t n : during) EXPECT_LE(n, before + 2);
}

TEST(RunIndexed, WorksWithMoveOnlyNonDefaultConstructibleResults) {
  struct Result {
    explicit Result(std::string v) : value(std::move(v)) {}
    Result(Result&&) = default;
    Result& operator=(Result&&) = default;
    Result(const Result&) = delete;
    std::string value;
  };
  const auto results = run_indexed<Result>(
      3, 5, [](std::size_t i) { return Result("run" + std::to_string(i)); });
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(results[i].value, "run" + std::to_string(i));
}

// Two runs throw; wait() must surface the lowest submission index no matter
// which worker faulted first.
TEST(ScenarioRunner, WaitRethrowsLowestSubmissionIndexError) {
  for (int jobs : {1, 4}) {
    ScenarioRunner pool(jobs);
    for (int i = 0; i < 8; ++i) {
      pool.submit([i] {
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          throw std::runtime_error("boom 5");
        }
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("boom 2");
        }
      });
    }
    try {
      pool.wait();
      FAIL() << "wait() did not rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 2") << "jobs=" << jobs;
    }
  }
}

TEST(ScenarioRunner, ReusableAfterWaitAndAfterError) {
  ScenarioRunner pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  pool.submit([&] { throw std::runtime_error("first round"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error was consumed; a fresh round runs clean on the same pool.
  for (int i = 0; i < 4; ++i) pool.submit([&] { ++ran; });
  pool.wait();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(pool.submitted(), 6u);
}

TEST(ScenarioRunner, TimedSecondsIsNonNegativeAndRuns) {
  bool ran = false;
  const double s = timed_seconds([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_GE(s, 0.0);
}

}  // namespace
}  // namespace floc::runner
