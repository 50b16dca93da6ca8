// Wall-clock profiler: attribute the simulator's real CPU time to named
// components (event dispatch, each queue-disc class, TCP processing,
// capability verification) so benches can print where a run's seconds went.
//
// A component asks the Profiler for a named Section once at attach time and
// keeps the raw pointer; hot paths then open a ScopedTimer on that pointer.
// The pointer is null by default — the same fast path contract as Tracer and
// MetricRegistry: a detached component pays one pointer-null test and zero
// allocations (pinned by tests/telemetry_fastpath_test.cc).
//
// Sections are inclusive: a timer opened inside another section's scope also
// counts toward the outer one. Readers (perf_suite, the scenbench driver)
// read calls and total_ns off sections() and compute their own splits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace floc::telemetry {

// Monotonic wall clock in nanoseconds.
std::uint64_t clock_ns();

class Profiler {
 public:
  struct Section {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;

    void record(std::uint64_t ns) {
      ++calls;
      total_ns += ns;
    }
  };

  // Get-or-create; the returned pointer is stable for the Profiler's
  // lifetime. Not for hot paths — call once at attach time.
  Section* section(const std::string& name);

  const std::vector<std::unique_ptr<Section>>& sections() const {
    return sections_;
  }

 private:
  std::vector<std::unique_ptr<Section>> sections_;
  std::unordered_map<std::string, std::size_t> index_;
};

// RAII: times its scope into a Section. A null section is a no-op, so hot
// paths can open one unconditionally on their (maybe-null) section pointer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Profiler::Section* section)
      : section_(section), start_ns_(section != nullptr ? clock_ns() : 0) {}
  ~ScopedTimer() {
    if (section_ != nullptr) section_->record(clock_ns() - start_ns_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler::Section* section_;
  std::uint64_t start_ns_;
};

}  // namespace floc::telemetry
