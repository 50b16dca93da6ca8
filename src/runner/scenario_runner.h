// Parallel scenario-sweep engine with a hard cross-thread determinism
// contract.
//
// A sweep (seed sweep, attack-case grid, topology matrix) is a list of
// independent runs. Each run owns a fully isolated world — its own
// Simulator, Rng streams derived via util/seed.h's (master, index, salt)
// derivation, its own MetricRegistry / Tracer / EventJournal — so no
// simulated byte can depend on scheduling. The runner only decides *when*
// wall-clock work happens:
//
//   * a fixed pool of N worker threads (no work stealing, no dynamic
//     resizing) drains a FIFO task queue;
//   * results are merged in submission order, never completion order;
//   * jobs <= 1 executes inline on the caller's thread, making `--jobs 1`
//     literally the serial program and the golden baseline the parallel
//     paths are pinned against (tests/runner_golden_trace_test.cc).
//
// The contract: for any fixed master seed, every derived artifact (tables,
// journals, span CSVs, time series) is byte-identical for all jobs values.
// Runs therefore must not touch shared mutable state — no static counters,
// no shared Rng, no printing from inside a run; produce values/strings and
// let the caller emit them in merge order.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace floc::runner {

// Pool width for "use the machine": hardware_concurrency with a sane floor.
int default_jobs();

class ScenarioRunner {
 public:
  // `jobs` is clamped to >= 1. With jobs == 1 no threads are created and
  // submit() runs the task inline (exceptions are still deferred to wait(),
  // so error handling is uniform across serial and parallel execution).
  explicit ScenarioRunner(int jobs = 1);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Enqueue a run; returns its submission index (0-based, dense). Tasks
  // start in FIFO order; completion order is unspecified.
  std::size_t submit(std::function<void()> task);

  // Block until every submitted task has finished. If any task threw, the
  // exception of the *lowest submission index* is rethrown (deterministic
  // regardless of which worker hit its error first). The runner remains
  // usable for further submit()/wait() rounds afterwards.
  void wait();

  int jobs() const { return jobs_; }
  std::size_t submitted() const;

 private:
  void worker();
  void record_exception(std::size_t index, std::exception_ptr e);
  void throw_pending_locked();

  const int jobs_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable done_cv_;   // wait(): all tasks finished
  std::deque<std::pair<std::size_t, std::function<void()>>> queue_;
  std::size_t next_index_ = 0;
  std::size_t completed_ = 0;
  bool stop_ = false;
  std::size_t error_index_ = SIZE_MAX;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

// Wall-clock seconds spent in `fn()` (steady clock) — for RunManifest
// per-run timings; simulated time is unaffected.
template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Run `fn(i)` for every i in [0, count) on min(jobs, count) threads and
// return the results indexed by i — i.e. merged in submission order no
// matter which run finishes first. R needs to be movable, not
// default-constructible.
template <typename R, typename Fn>
std::vector<R> run_indexed(int jobs, std::size_t count, Fn&& fn) {
  std::vector<std::optional<R>> slots(count);
  ScenarioRunner pool(static_cast<int>(
      std::min(static_cast<std::size_t>(std::max(jobs, 1)), count)));
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([&slots, &fn, i] { slots[i].emplace(fn(i)); });
  }
  pool.wait();
  std::vector<R> out;
  out.reserve(count);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace floc::runner
