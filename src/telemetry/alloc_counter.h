// Scoped allocation counting for fast-path guarantees.
//
// The repo's telemetry contract says a detached component allocates nothing
// on the packet path, and the perf suite tracks "allocations per kilopacket"
// as a gated BENCH_perf.json metric. Both need a way to count global
// operator new/delete calls — but replacing those operators is program-wide,
// so the replacement cannot live in a library that every binary links.
//
// Split: this header/cc owns the process-wide atomic counters and the
// snapshot-delta guard; a binary that wants counting (bench/perf_suite, the
// fastpath test) opts in by placing FLOC_DEFINE_COUNTING_ALLOCATOR once at
// namespace scope in exactly one of its TUs, which defines operator
// new/delete replacements that tick the counters. In a binary without the
// macro the counters never move: ScopedAllocCount still constructs, reports
// zero deltas, and — being two u64 loads — is itself allocation-free either
// way (pinned by tests/telemetry_fastpath_test.cc).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace floc::telemetry {

// Process-wide counters. Relaxed ordering: totals only, no synchronization.
struct AllocCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes{0};
};

AllocCounters& alloc_counters();

// The counted malloc/free pair behind the FLOC_DEFINE_COUNTING_ALLOCATOR
// operator replacements: count, then malloc (null on failure) or free (a
// null `p` is a no-op). Out of line on purpose: with the malloc and the free
// inside one TU's inlined operator new/delete, GCC pairs them and warns
// -Wmismatched-new-delete.
void* counted_malloc(std::size_t bytes);
void counted_free(void* p) noexcept;

// Snapshot-delta guard: construct before the measured region, read deltas
// after. No heap use of its own.
class ScopedAllocCount {
 public:
  ScopedAllocCount() { reset(); }

  void reset() {
    const AllocCounters& c = alloc_counters();
    allocs0_ = c.allocs.load(std::memory_order_relaxed);
    frees0_ = c.frees.load(std::memory_order_relaxed);
    bytes0_ = c.bytes.load(std::memory_order_relaxed);
  }

  std::uint64_t allocs() const {
    return alloc_counters().allocs.load(std::memory_order_relaxed) - allocs0_;
  }
  std::uint64_t frees() const {
    return alloc_counters().frees.load(std::memory_order_relaxed) - frees0_;
  }
  std::uint64_t bytes() const {
    return alloc_counters().bytes.load(std::memory_order_relaxed) - bytes0_;
  }

 private:
  std::uint64_t allocs0_ = 0;
  std::uint64_t frees0_ = 0;
  std::uint64_t bytes0_ = 0;
};

}  // namespace floc::telemetry

// Place once, at namespace scope, in ONE translation unit of a binary that
// wants real counts. (Definitions of replaceable global operators must not be
// inline, hence a macro rather than a header definition.)
#define FLOC_DEFINE_COUNTING_ALLOCATOR                                   \
  void* operator new(std::size_t n) {                                    \
    if (void* p = ::floc::telemetry::counted_malloc(n)) return p;        \
    throw std::bad_alloc();                                              \
  }                                                                      \
  void operator delete(void* p) noexcept {                               \
    ::floc::telemetry::counted_free(p);                                  \
  }                                                                      \
  void operator delete(void* p, std::size_t) noexcept {                  \
    ::floc::telemetry::counted_free(p);                                  \
  }
