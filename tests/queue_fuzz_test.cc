// Randomized robustness sweep over every queue discipline: arbitrary packet
// streams (mixed types, sizes, paths, timestamps) must never violate the
// queue invariants — no crash, byte/packet conservation, buffer bounds.
//
// Two bodies share the scheme x seed grid:
//   * InvariantsUnderRandomTraffic — uniform random enqueue/dequeue mix;
//   * ModeTransitionInterleavings — phase-structured traffic (bursts, drains,
//     quiet gaps jumping whole control intervals) with FLoc faults (reboot,
//     secret rotation) and forced control passes interleaved, audited every
//     phase; for FLoc the defense-event journal is attached and the recorded
//     mode-transition chain is checked for validity.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "heap_event_queue.h"
#include "netsim/simulator.h"
#include "telemetry/telemetry.h"
#include "topology/defense_factory.h"
#include "util/rng.h"
#include "util/seed.h"

namespace floc {
namespace {

// gtest prints a parameter without a PrintTo as its raw bytes, and ctest
// takes that dump into each test's name. `filler` occupies the four bytes the
// compiler would otherwise leave as padding between the 4-byte enum and the
// seed, so those bytes are always zero instead of leftover heap contents that
// change from run to run with address randomisation.
struct FuzzCase {
  DefenseScheme scheme;
  std::uint32_t filler = 0;
  std::uint64_t seed;
};
static_assert(sizeof(FuzzCase) == 16, "FuzzCase must have no padding");

class QueueFuzz : public ::testing::TestWithParam<FuzzCase> {};

// Random packet shaped like the scenario mix: mostly data, some handshake
// types, 1-3 hop origin paths.
Packet random_packet(Rng& rng) {
  Packet p;
  p.flow = rng.uniform_int(40);
  p.src = static_cast<HostAddr>(rng.uniform_int(20) + 1);
  p.dst = static_cast<HostAddr>(rng.uniform_int(5) + 100);
  const auto type_pick = rng.uniform_int(10);
  p.type = type_pick < 7   ? PacketType::kData
           : type_pick < 8 ? PacketType::kSyn
           : type_pick < 9 ? PacketType::kAck
                           : PacketType::kSynAck;
  p.size_bytes = p.type == PacketType::kData
                     ? static_cast<int>(rng.uniform_int(1461) + 40)
                     : 40;
  p.seq = rng.uniform_int(1000);
  PathId path;
  const auto hops = rng.uniform_int(3) + 1;
  for (std::uint64_t h = 0; h < hops; ++h) {
    path.push_origin(static_cast<AsNumber>(rng.uniform_int(6) + 1));
  }
  p.path = path;
  return p;
}

TEST_P(QueueFuzz, InvariantsUnderRandomTraffic) {
  const FuzzCase fc = GetParam();
  DefenseFactoryConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 64;
  cfg.seed = fc.seed;
  auto q = make_defense_queue(fc.scheme, std::move(cfg));

  Rng rng(fc.seed * 7919 + 13);
  std::uint64_t admitted = 0, serviced = 0, offered = 0;
  std::uint64_t admitted_bytes = 0, serviced_bytes = 0;
  double t = 0.0;

  for (int i = 0; i < 30000; ++i) {
    t += rng.exponential(2e-4);
    const double action = rng.uniform();
    if (action < 0.7) {
      Packet p = random_packet(rng);
      ++offered;
      const int bytes = p.size_bytes;
      if (q->enqueue(std::move(p), t)) {
        ++admitted;
        admitted_bytes += static_cast<std::uint64_t>(bytes);
      }
    } else {
      auto out = q->dequeue(t);
      if (out) {
        ++serviced;
        serviced_bytes += static_cast<std::uint64_t>(out->size_bytes);
      }
    }
    ASSERT_LE(q->packet_count(), 64u);
  }

  // Conservation.
  EXPECT_EQ(admitted, serviced + q->packet_count());
  EXPECT_EQ(admitted_bytes, serviced_bytes + q->byte_count());
  EXPECT_EQ(offered, admitted + q->drops());
  // Drain completely.
  while (auto p = q->dequeue(t)) {
    ++serviced;
  }
  EXPECT_EQ(q->packet_count(), 0u);
  EXPECT_EQ(q->byte_count(), 0u);
  EXPECT_TRUE(q->empty());
}

// Phase-structured fuzz: alternating bursts (enqueue-heavy, drives the
// FlocQueue toward kCongested/kFlooding), drains (dequeue-heavy, back toward
// kUncongested) and quiet gaps whose time jumps cross several control
// intervals, with reboot()/rotate_secret() faults and forced control passes
// racing the traffic. Every phase ends with the discipline's own audit()
// plus external conservation checks; for FLoc the journal's mode-transition
// chain must be a valid walk (modes in range, time/seq monotone, every
// recorded transition an actual change).
TEST_P(QueueFuzz, ModeTransitionInterleavings) {
  const FuzzCase fc = GetParam();
  DefenseFactoryConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 64;
  cfg.seed = fc.seed;
  cfg.floc.control_interval = 0.05;  // many mode decisions per run
  auto q = make_defense_queue(fc.scheme, std::move(cfg));
  auto* fq = dynamic_cast<FlocQueue*>(q.get());
  ASSERT_EQ(fq != nullptr, fc.scheme == DefenseScheme::kFloc);

  telemetry::Telemetry tel;
  if (fq != nullptr) fq->attach_telemetry(&tel);

  Rng rng(derive_seed(fc.seed, 0, /*salt=*/0xF022));
  std::uint64_t admitted = 0, serviced = 0, offered = 0;
  std::uint64_t admitted_bytes = 0, serviced_bytes = 0;
  std::uint64_t flushed = 0, flushed_bytes = 0;  // wiped by reboot()
  double t = 0.0;

  for (int phase = 0; phase < 40; ++phase) {
    // Phase style: burst / drain / mixed enqueue probability.
    const double style = rng.uniform();
    const double p_enq = style < 0.4 ? 0.95 : style < 0.7 ? 0.15 : 0.6;
    // Quiet gap: jump up to ~6 control intervals so the next packet's lazy
    // control pass has to catch up across missed intervals.
    if (rng.uniform() < 0.4) t += rng.uniform() * 0.3;
    // Faults, mid-stream (FLoc only; baselines carry no router soft state).
    if (fq != nullptr && rng.uniform() < 0.2) {
      if (rng.uniform() < 0.5) {
        flushed += q->packet_count();
        flushed_bytes += q->byte_count();
        fq->reboot(t);
      } else {
        fq->rotate_secret(rng.next_u64(), t);
      }
    }

    const int steps = 300 + static_cast<int>(rng.uniform_int(300));
    for (int i = 0; i < steps; ++i) {
      t += rng.exponential(2e-4);
      // Occasionally force a control pass between packets so control-loop
      // state changes interleave with enqueue/dequeue at arbitrary points.
      if (fq != nullptr && rng.uniform() < 0.02) fq->run_control(t);
      if (rng.uniform() < p_enq) {
        Packet p = random_packet(rng);
        ++offered;
        const int bytes = p.size_bytes;
        if (q->enqueue(std::move(p), t)) {
          ++admitted;
          admitted_bytes += static_cast<std::uint64_t>(bytes);
        }
      } else {
        auto out = q->dequeue(t);
        if (out) {
          ++serviced;
          serviced_bytes += static_cast<std::uint64_t>(out->size_bytes);
        }
      }
      ASSERT_LE(q->packet_count(), 64u);
    }

    // Per-phase audit + external conservation (reboot wipes are accounted
    // as flushed, not serviced).
    std::string why;
    ASSERT_TRUE(q->audit(t, &why)) << "phase " << phase << ": " << why;
    ASSERT_EQ(admitted, serviced + q->packet_count() + flushed);
    ASSERT_EQ(admitted_bytes, serviced_bytes + q->byte_count() + flushed_bytes);
    ASSERT_EQ(offered, admitted + q->drops());
  }

  if (fq != nullptr) {
    // Flush a final journal_mode pass, then validate the recorded chain.
    fq->run_control(t);
    const auto transitions =
        tel.journal.of_kind(telemetry::EventKind::kModeTransition);
    double last_time = -1.0;
    std::uint64_t last_seq = 0;
    std::uint64_t last_mode = ~0ULL;
    for (const telemetry::DefenseEvent* e : transitions) {
      EXPECT_LE(e->a, 2u) << "mode ordinal out of range";
      EXPECT_GE(e->time, last_time) << "mode transitions out of time order";
      if (last_mode != ~0ULL) {
        EXPECT_GT(e->seq, last_seq) << "journal seq not monotone";
        EXPECT_NE(e->a, last_mode) << "recorded a transition to the same mode";
      }
      last_time = e->time;
      last_seq = e->seq;
      last_mode = e->a;
    }
    if (!transitions.empty() && !tel.journal.overflowed()) {
      EXPECT_EQ(transitions.back()->a,
                static_cast<std::uint64_t>(static_cast<int>(fq->mode())))
          << "journal tail disagrees with the live mode";
    }
    // Structural bursts + drains must actually have exercised the machinery.
    EXPECT_GT(tel.journal.count(telemetry::EventKind::kDrop) +
                  tel.journal.count(telemetry::EventKind::kModeTransition),
              0u);
  }

  // Drain completely.
  while (auto p = q->dequeue(t)) {
    ++serviced;
  }
  EXPECT_EQ(q->packet_count(), 0u);
  EXPECT_TRUE(q->empty());
}

// Hardened latch cycling: scripted latch -> quiet -> release -> re-latch
// phases (a flood pinned to one origin path, then a calm gap long enough for
// the release hysteresis, repeated) with random background traffic mixed in,
// against the FULL hardening stack — jittered intervals, hash-drawn bucket
// dips with probation audits, exponential-backoff release, and the offender
// blacklist. Every cycle must pass the discipline's own audit plus external
// conservation, and for FLoc the cycling must actually exercise the
// machinery: the pinned path latches, and the backoff bookkeeping stays
// within its configured cap.
TEST_P(QueueFuzz, HardenedLatchReleaseCycles) {
  const FuzzCase fc = GetParam();
  DefenseFactoryConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 64;
  cfg.seed = fc.seed;
  cfg.floc.control_interval = 0.05;
  cfg.floc.interval_jitter = 0.15;
  cfg.floc.jitter_dip_prob = 0.4;
  cfg.floc.backoff_release = true;
  cfg.floc.backoff_cap = 8;
  cfg.floc.enable_blacklist = true;
  cfg.floc.blacklist_strikes = 6;
  cfg.floc.blacklist_duration = 1.0;
  auto q = make_defense_queue(fc.scheme, std::move(cfg));
  auto* fq = dynamic_cast<FlocQueue*>(q.get());

  telemetry::Telemetry tel;
  if (fq != nullptr) fq->attach_telemetry(&tel);

  Rng rng(derive_seed(fc.seed, 0, /*salt=*/0xF023));
  std::uint64_t admitted = 0, serviced = 0, offered = 0;
  std::uint64_t admitted_bytes = 0, serviced_bytes = 0;
  double t = 0.0;

  const PathId pinned = PathId::of({3});
  bool ever_latched = false;
  int releases_observed = 0;

  auto offer = [&](Packet p) {
    ++offered;
    const int bytes = p.size_bytes;
    if (q->enqueue(std::move(p), t)) {
      ++admitted;
      admitted_bytes += static_cast<std::uint64_t>(bytes);
    }
  };
  auto service = [&] {
    auto out = q->dequeue(t);
    if (out) {
      ++serviced;
      serviced_bytes += static_cast<std::uint64_t>(out->size_bytes);
    }
  };

  for (int cycle = 0; cycle < 8; ++cycle) {
    // Flood phase: hammer the pinned path (fixed flow + src so strikes can
    // accumulate) with random background traffic underneath.
    const int flood_steps = 1500 + static_cast<int>(rng.uniform_int(500));
    for (int i = 0; i < flood_steps; ++i) {
      t += rng.exponential(3e-4);
      Packet p;
      p.flow = 999;
      p.src = 7;
      p.dst = 100;
      p.type = PacketType::kData;
      p.size_bytes = 1000;
      p.path = pinned;
      offer(std::move(p));
      if (rng.uniform() < 0.2) offer(random_packet(rng));
      if (rng.uniform() < 0.35) service();
      ASSERT_LE(q->packet_count(), 64u);
    }
    if (fq != nullptr && fq->is_attack_path(pinned)) ever_latched = true;

    // Quiet phase: drain, then advance across enough control intervals for
    // the (possibly escalated) release hysteresis, keeping the lazy control
    // loop ticking with background traffic.
    while (auto out = q->dequeue(t)) {
      ++serviced;
      serviced_bytes += static_cast<std::uint64_t>(out->size_bytes);
    }
    const bool latched_before_quiet =
        fq != nullptr && fq->is_attack_path(pinned);
    const int quiet_ticks =
        fq == nullptr ? 8 : 2 + fq->release_required(pinned);
    for (int i = 0; i < quiet_ticks; ++i) {
      t += 0.06;
      if (fq != nullptr) fq->run_control(t);
      if (rng.uniform() < 0.5) offer(random_packet(rng));
      if (rng.uniform() < 0.5) service();
    }
    if (latched_before_quiet && fq != nullptr && !fq->is_attack_path(pinned)) {
      ++releases_observed;
    }

    std::string why;
    ASSERT_TRUE(q->audit(t, &why)) << "cycle " << cycle << ": " << why;
    ASSERT_EQ(admitted, serviced + q->packet_count());
    ASSERT_EQ(admitted_bytes, serviced_bytes + q->byte_count());
    ASSERT_EQ(offered, admitted + q->drops());
    if (fq != nullptr) {
      EXPECT_LE(fq->backoff_multiplier(pinned), 8) << "cap exceeded";
      EXPECT_GE(fq->backoff_multiplier(pinned), 1);
    }
  }

  if (fq != nullptr) {
    // The scripted cycling must actually have walked the latch machinery.
    EXPECT_TRUE(ever_latched);
    EXPECT_GT(releases_observed, 0);
    EXPECT_GT(tel.journal.count(telemetry::EventKind::kAttackLatch), 0u);
    EXPECT_GT(tel.journal.count(telemetry::EventKind::kAttackRelease), 0u);
  }

  while (auto p = q->dequeue(t)) {
    ++serviced;
  }
  EXPECT_TRUE(q->empty());
}

// State-exhaustion churn: >= 10^5 DISTINCT path keys (every packet claims a
// fresh origin AS) with rotating flow ids and sender addresses, against every
// discipline. For FLoc the state budgets and overload mode are ON with tiny
// capacities, so the phase crosses the eviction and overload machinery tens
// of thousands of times; the other disciplines prove churn cannot crash or
// un-conserve a stateless queue either. Table-size bounds are asserted DURING
// the churn (any instant over budget is a failure, not just the end state),
// and the audit must stay clean after heavy eviction.
//
// The origin capacity (64) sits well below the expected arrival count of the
// first control interval (~250), so the table provably fills and evicts
// BEFORE the first overload evaluation can coarsen new paths away — with a
// larger capacity, a seed whose first window delivers fewer packets than
// capacity would enter overload first and never evict an origin at all.
TEST_P(QueueFuzz, StateChurnBoundedTables) {
  const FuzzCase fc = GetParam();
  DefenseFactoryConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 64;
  cfg.seed = fc.seed;
  cfg.floc.control_interval = 0.05;
  cfg.floc.origin_budget.capacity = 64;
  cfg.floc.flow_budget.capacity = 32;
  cfg.floc.offense_budget.capacity = 64;
  cfg.floc.offender_budget.capacity = 64;
  cfg.floc.enable_overload_mode = true;
  cfg.floc.backoff_release = true;
  cfg.floc.enable_blacklist = true;
  // Exercise each eviction policy across the seed grid.
  cfg.floc.origin_budget.policy =
      static_cast<EvictionPolicy>(fc.seed % kEvictionPolicyCount);
  auto q = make_defense_queue(fc.scheme, std::move(cfg));
  auto* fq = dynamic_cast<FlocQueue*>(q.get());

  Rng rng(derive_seed(fc.seed, 0, /*salt=*/0xF024));
  std::uint64_t admitted = 0, serviced = 0, offered = 0;
  std::uint64_t admitted_bytes = 0, serviced_bytes = 0;
  double t = 0.0;

  constexpr int kDistinctPaths = 100'000;
  for (int i = 0; i < kDistinctPaths; ++i) {
    t += rng.exponential(2e-4);
    Packet p;
    // Fresh identity per packet: distinct origin AS (=> distinct path key),
    // rotating flow id and source address.
    p.flow = static_cast<FlowId>(i % 4096);
    p.src = static_cast<HostAddr>(1 + (i % 997));
    p.dst = 100;
    p.type = i % 8 == 0 ? PacketType::kSyn : PacketType::kData;
    p.size_bytes = p.type == PacketType::kData ? 200 : 40;
    p.seq = static_cast<std::uint64_t>(i);
    PathId path;
    path.push_origin(static_cast<AsNumber>(7));  // shared first hop
    path.push_origin(static_cast<AsNumber>(1000 + i));  // unique origin
    p.path = path;
    ++offered;
    const int bytes = p.size_bytes;
    if (q->enqueue(std::move(p), t)) {
      ++admitted;
      admitted_bytes += static_cast<std::uint64_t>(bytes);
    }
    if (i % 3 == 0) {
      auto out = q->dequeue(t);
      if (out) {
        ++serviced;
        serviced_bytes += static_cast<std::uint64_t>(out->size_bytes);
      }
    }
    ASSERT_LE(q->packet_count(), 64u);
    if (fq != nullptr) {
      // Bounded at EVERY instant, not just at the end.
      ASSERT_LE(fq->active_origin_path_count(), 64);
      ASSERT_LE(fq->max_path_flow_count(), 32u);
      ASSERT_LE(fq->offense_size(), 64u);
      ASSERT_LE(fq->offender_size(), 64u);
    }
    if (i % 20000 == 19999) {
      std::string why;
      ASSERT_TRUE(q->audit(t, &why)) << "at i=" << i << ": " << why;
    }
  }

  std::string why;
  ASSERT_TRUE(q->audit(t, &why)) << why;
  ASSERT_EQ(admitted, serviced + q->packet_count());
  ASSERT_EQ(admitted_bytes, serviced_bytes + q->byte_count());
  ASSERT_EQ(offered, admitted + q->drops());
  if (fq != nullptr) {
    // 10^5 distinct paths through a 64-entry table: eviction must have run.
    EXPECT_GT(fq->evicted_origins(), 0u);
  }

  while (auto p = q->dequeue(t)) {
    ++serviced;
  }
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->byte_count(), 0u);
}

// Engine-lockstep phase (ISSUE 10, satellite 5): the same phase-structured
// mode-transition workload, but driven THROUGH a Simulator by a
// self-rescheduling driver event — once on the heap reference queue, once
// on the wheel — with scheduler ops (timer schedules, cancels, quiet-gap jumps,
// mid-stream FLoc faults, forced control passes) mixed into the packet
// stream. The per-engine Rng streams are seeded identically, so every
// observable (conservation counters, final clock, events processed and
// cancelled, and for FLoc the byte-exact defense-event journal) must match
// across engines; any divergence in event ordering desynchronizes the Rng
// draw sequence and shows up in the comparison.
struct EngineRun {
  std::uint64_t offered = 0, admitted = 0, serviced = 0;
  std::uint64_t admitted_bytes = 0, serviced_bytes = 0;
  std::uint64_t flushed = 0, flushed_bytes = 0;  // wiped by reboot()
  std::uint64_t processed = 0, cancelled = 0, late = 0;
  double end_time = 0.0;
  std::string journal;
};

EngineRun run_mode_transition_world(const FuzzCase& fc, Engine engine) {
  DefenseFactoryConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 64;
  cfg.seed = fc.seed;
  cfg.floc.control_interval = 0.05;
  auto q = make_defense_queue(fc.scheme, std::move(cfg));
  auto* fq = dynamic_cast<FlocQueue*>(q.get());

  telemetry::Telemetry tel;
  if (fq != nullptr) fq->attach_telemetry(&tel);

  Simulator sim(make_event_queue(engine));
  Rng rng(derive_seed(fc.seed, 0, /*salt=*/0xF025));
  EngineRun r;
  int steps = 0;
  constexpr int kSteps = 12000;

  std::function<void()> step = [&] {
    if (steps >= kSteps) return;
    ++steps;
    const double t = sim.now();
    if (fq != nullptr && rng.uniform() < 0.005) {
      if (rng.uniform() < 0.5) {
        r.flushed += q->packet_count();
        r.flushed_bytes += q->byte_count();
        fq->reboot(t);
      } else {
        fq->rotate_secret(rng.next_u64(), t);
      }
    }
    if (fq != nullptr && rng.uniform() < 0.02) fq->run_control(t);
    if (rng.uniform() < 0.65) {
      Packet p = random_packet(rng);
      ++r.offered;
      const int bytes = p.size_bytes;
      if (q->enqueue(std::move(p), t)) {
        ++r.admitted;
        r.admitted_bytes += static_cast<std::uint64_t>(bytes);
      }
    } else {
      auto out = q->dequeue(t);
      if (out) {
        ++r.serviced;
        r.serviced_bytes += static_cast<std::uint64_t>(out->size_bytes);
      }
    }
    // Mix raw scheduler traffic into the packet stream: decoy timers at
    // random horizons, half of them cancelled again immediately.
    if (rng.uniform() < 0.05) {
      auto h = sim.schedule_in(rng.uniform() * 0.01, [] {});
      if (rng.uniform() < 0.5) sim.cancel(h);
    }
    // Mostly packet-paced gaps; occasionally a quiet jump across several
    // control intervals (mode-release territory).
    const double dt =
        rng.uniform() < 0.01 ? rng.uniform() * 0.3 : rng.exponential(2e-4);
    sim.schedule_in(dt, step);
  };
  sim.schedule_at(0.0, step);
  sim.run();

  EXPECT_EQ(steps, kSteps);
  std::string why;
  EXPECT_TRUE(q->audit(sim.now(), &why)) << why;
  while (auto out = q->dequeue(sim.now())) {
    ++r.serviced;
    r.serviced_bytes += static_cast<std::uint64_t>(out->size_bytes);
  }
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(r.offered, r.admitted + q->drops());
  EXPECT_EQ(r.admitted_bytes, r.serviced_bytes + r.flushed_bytes);
  r.processed = sim.events_processed();
  r.cancelled = sim.cancelled_events();
  r.late = sim.late_events();
  r.end_time = sim.now();
  r.journal = tel.journal.dump();
  return r;
}

TEST_P(QueueFuzz, EngineLockstepModeTransitions) {
  const EngineRun heap = run_mode_transition_world(GetParam(), Engine::kHeap);
  const EngineRun wheel =
      run_mode_transition_world(GetParam(), Engine::kWheel);
  EXPECT_EQ(heap.offered, wheel.offered);
  EXPECT_EQ(heap.admitted, wheel.admitted);
  EXPECT_EQ(heap.serviced, wheel.serviced);
  EXPECT_EQ(heap.admitted_bytes, wheel.admitted_bytes);
  EXPECT_EQ(heap.serviced_bytes, wheel.serviced_bytes);
  EXPECT_EQ(heap.flushed, wheel.flushed);
  EXPECT_EQ(heap.flushed_bytes, wheel.flushed_bytes);
  EXPECT_EQ(heap.processed, wheel.processed);
  EXPECT_EQ(heap.cancelled, wheel.cancelled);
  EXPECT_EQ(heap.late, wheel.late);
  EXPECT_EQ(heap.end_time, wheel.end_time);
  EXPECT_EQ(heap.journal, wheel.journal)
      << "defense-event journal diverged across engines";
  EXPECT_GT(heap.processed, 12000u);
}

std::vector<FuzzCase> all_cases() {
  std::vector<FuzzCase> out;
  for (DefenseScheme s :
       {DefenseScheme::kDropTail, DefenseScheme::kRed, DefenseScheme::kRedPd,
        DefenseScheme::kPushback, DefenseScheme::kPriorityFair,
        DefenseScheme::kDrr, DefenseScheme::kFloc}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      out.push_back({.scheme = s, .seed = seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, QueueFuzz, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           return std::string(to_string(info.param.scheme) ==
                                                      std::string("red-pd")
                                                  ? "red_pd"
                                                  : to_string(info.param.scheme)) +
                                  "_" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace floc
