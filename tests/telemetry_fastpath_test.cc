// Telemetry-disabled fast path: a FlocQueue that has never had telemetry
// attached — or had it detached again — must do the exact same work as the
// seed queue. We pin that down two ways:
//
//  1. Allocation parity. Global operator new/delete are replaced with the
//     shared counting versions from telemetry/alloc_counter.h (which is why
//     this test lives in its own binary: the replacement is program-wide,
//     same opt-in as bench/perf_suite). A detached queue must allocate
//     exactly as much as a never-attached one over an identical workload,
//     and a steady-state enqueue/dequeue loop must allocate nothing.
//
//  2. A generous wall-clock bound, as a smoke check that the pointer-null
//     guard did not accidentally put a slow path (string formatting,
//     journal append) on the packet path.
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/floc_queue.h"
#include "netsim/packet_fifo.h"
#include "telemetry/alloc_counter.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracing.h"

FLOC_DEFINE_COUNTING_ALLOCATOR

namespace floc {
namespace {

using telemetry::ScopedAllocCount;

FlocConfig bench_cfg() {
  FlocConfig cfg;
  cfg.link_bandwidth = gbps(10);
  cfg.buffer_packets = 4096;
  return cfg;
}

Packet make_packet(FlowId flow, const PathId& path) {
  Packet p;
  p.flow = flow;
  p.src = static_cast<HostAddr>(flow + 1);
  p.dst = 9999;
  p.path = path;
  p.type = PacketType::kData;
  return p;
}

// The router_design_micro workload: a fixed flow population cycling
// enqueue/dequeue at ~10 Gbps pacing. Returns total admitted.
std::uint64_t run_workload(FlocQueue& q, int packets) {
  const PathId paths[4] = {PathId::of({1, 101}), PathId::of({2, 102}),
                           PathId::of({3, 103}), PathId::of({4, 104})};
  double t = 0.0;
  std::uint64_t admitted = 0;
  for (int i = 0; i < packets; ++i) {
    Packet p = make_packet(static_cast<FlowId>(i % 200),
                           paths[static_cast<std::size_t>(i % 4)]);
    if (q.enqueue(std::move(p), t)) ++admitted;
    q.dequeue(t);
    t += 1.2e-6;
  }
  return admitted;
}

// Grows this thread's packet slab past anything one test queue holds, so
// every queue measured afterwards starts from the same slab state instead of
// the first one paying the slab's growth.
void warm_packet_slab() {
  PacketFifo fill;
  for (int i = 0; i < 4096; ++i) fill.push_back(Packet{});
}

TEST(TelemetryFastPath, DetachedQueueAllocatesExactlyLikeSeedQueue) {
  constexpr int kPackets = 50000;
  warm_packet_slab();

  // Baseline: telemetry never attached.
  FlocQueue plain(bench_cfg());
  ScopedAllocCount guard;
  const std::uint64_t plain_admitted = run_workload(plain, kPackets);
  const std::uint64_t plain_allocs = guard.allocs();

  // Attached then detached: registration may allocate, but once journal_
  // is null again the packet path must be byte-for-byte the seed path.
  FlocQueue detached(bench_cfg());
  {
    telemetry::Telemetry tel;
    detached.attach_telemetry(&tel);
    detached.attach_telemetry(nullptr);
  }
  guard.reset();
  const std::uint64_t detached_admitted = run_workload(detached, kPackets);
  const std::uint64_t detached_allocs = guard.allocs();

  EXPECT_EQ(plain_admitted, detached_admitted);
  EXPECT_EQ(plain.drops(), detached.drops());
  EXPECT_EQ(plain_allocs, detached_allocs);

  // Once warm, the detached queue's packet path allocates nothing.
  guard.reset();
  run_workload(detached, kPackets);
  EXPECT_EQ(guard.allocs(), 0u);
}

TEST(TelemetryFastPath, AttachedButQuiescentAddsNoAllocations) {
  // What telemetry must guarantee: with the journal attached but quiescent
  // (no mode transitions, no journaled events), the packet path allocates
  // EXACTLY as much as the seed queue — the gauge_fn closures are polled,
  // never pushed, and the null/quiet guard allocates nothing.
  FlocQueue plain(bench_cfg());
  run_workload(plain, 50000);  // warm up flow tables, packet slab
  ScopedAllocCount guard;
  run_workload(plain, 50000);
  const std::uint64_t plain_steady = guard.allocs();

  FlocQueue attached(bench_cfg());
  telemetry::Telemetry tel;
  run_workload(attached, 50000);
  attached.attach_telemetry(&tel);  // after warmup: registration is cold
  const std::uint64_t before_events = tel.journal.total();
  guard.reset();
  run_workload(attached, 50000);
  const std::uint64_t attached_steady = guard.allocs();

  // Quiescent run: nothing was journaled, so nothing may have allocated.
  ASSERT_EQ(tel.journal.total(), before_events);
  EXPECT_EQ(attached_steady, plain_steady);
  // And the shared baseline's packet path is allocation-free once warm.
  EXPECT_EQ(plain_steady, 0u);
}

TEST(TelemetryFastPath, DetachedTracerAndProfilerAllocateLikeSeedQueue) {
  constexpr int kPackets = 50000;

  FlocQueue plain(bench_cfg());
  run_workload(plain, kPackets);  // warm up flow tables, packet slab
  ScopedAllocCount guard;
  const std::uint64_t plain_admitted = run_workload(plain, kPackets);
  const std::uint64_t plain_steady = guard.allocs();

  // Tracer and profiler attached, then detached again: the packet path must
  // be byte-for-byte the seed path (one pointer test per hook site).
  FlocQueue detached(bench_cfg());
  run_workload(detached, kPackets);
  {
    telemetry::Tracer tracer;
    telemetry::Profiler prof;
    detached.set_tracer(&tracer);
    detached.set_profiler(&prof);
    detached.set_tracer(nullptr);
    detached.set_profiler(nullptr);
  }
  guard.reset();
  const std::uint64_t detached_admitted = run_workload(detached, kPackets);
  const std::uint64_t detached_steady = guard.allocs();

  EXPECT_EQ(plain_admitted, detached_admitted);
  EXPECT_EQ(plain_steady, detached_steady);
}

TEST(TelemetryFastPath, AttachedTracerIgnoresUntracedPackets) {
  // A tracer may be attached while most packets carry no span (tracing is
  // opt-in per packet via Packet::span). Untraced packets must not allocate
  // beyond the seed path: the guard is `tracer != null && span.active()`.
  constexpr int kPackets = 50000;

  FlocQueue plain(bench_cfg());
  run_workload(plain, kPackets);
  ScopedAllocCount guard;
  run_workload(plain, kPackets);
  const std::uint64_t plain_steady = guard.allocs();

  FlocQueue traced(bench_cfg());
  telemetry::Tracer tracer;
  run_workload(traced, kPackets);
  traced.set_tracer(&tracer);
  guard.reset();
  run_workload(traced, kPackets);
  const std::uint64_t traced_steady = guard.allocs();

  EXPECT_EQ(tracer.begun(), 0u);
  EXPECT_EQ(traced_steady, plain_steady);
}

TEST(ScopedAllocCount, CountsHeapTrafficInThisBinary) {
  // This binary placed FLOC_DEFINE_COUNTING_ALLOCATOR, so new/delete tick
  // the shared counters and the guard sees real deltas. The runtime-sized
  // vector stops the optimizer from eliding the allocation outright
  // (new-expression elision is legal since C++14).
  volatile std::size_t n = 64;
  ScopedAllocCount guard;
  {
    std::vector<std::uint64_t> v(n);
    v[0] = 7;
  }
  EXPECT_GE(guard.allocs(), 1u);
  EXPECT_GE(guard.frees(), 1u);
  EXPECT_GE(guard.bytes(), 64 * sizeof(std::uint64_t));
}

TEST(ScopedAllocCount, GuardItselfAllocatesNothing) {
  // The guard is snapshot/load only — constructing, resetting, and reading
  // one must not itself touch the heap, or it could not sit on a fast path.
  ScopedAllocCount outer;
  {
    ScopedAllocCount inner;
    inner.reset();
    (void)inner.allocs();
    (void)inner.frees();
    (void)inner.bytes();
  }
  EXPECT_EQ(outer.allocs(), 0u);
  EXPECT_EQ(outer.frees(), 0u);
}

TEST(TelemetryFastPath, IdleFlightRecorderAddsNoPacketPathAllocations) {
  // A FlightRecorder is pure control plane: it polls the registry from
  // sample()/capture() and the queue never sees it. With a recorder fully
  // wired (registry, journal, queue state dump registered) but not sampling,
  // the packet path must allocate exactly like the telemetry-attached
  // steady-state baseline.
  constexpr int kPackets = 50000;

  FlocQueue plain(bench_cfg());
  telemetry::Telemetry plain_tel;
  run_workload(plain, kPackets);
  plain.attach_telemetry(&plain_tel);
  ScopedAllocCount guard;
  run_workload(plain, kPackets);
  const std::uint64_t plain_steady = guard.allocs();

  FlocQueue recorded(bench_cfg());
  telemetry::Telemetry tel;
  run_workload(recorded, kPackets);
  recorded.attach_telemetry(&tel);
  telemetry::FlightRecorder rec(&tel.registry);
  rec.set_journal(&tel.journal);
  rec.add_queue("floc", &recorded);
  guard.reset();
  run_workload(recorded, kPackets);
  const std::uint64_t recorded_steady = guard.allocs();

  EXPECT_EQ(rec.ring_rows(), 0u) << "no sample() ran on the packet path";
  EXPECT_EQ(recorded_steady, plain_steady);
}

TEST(TelemetryFastPath, PerPacketCostStaysBounded) {
  FlocQueue q(bench_cfg());
  run_workload(q, 10000);  // warm up

  constexpr int kPackets = 100000;
  const auto start = std::chrono::steady_clock::now();
  run_workload(q, kPackets);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double ns_per_pkt =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      kPackets;
  // Seed-queue enqueue+dequeue measures ~100-300 ns/packet in release
  // builds. The bound is two orders of magnitude above that so debug and
  // sanitizer builds pass; it still catches an accidental string-format or
  // journal append on the disabled path (~microseconds each).
  EXPECT_LT(ns_per_pkt, 50000.0);
}

}  // namespace
}  // namespace floc
