// Canonical perf suite: the one binary that turns the Profiler's numbers
// into a per-PR trajectory. Emits a schema-versioned BENCH_perf.json
// (src/telemetry/perf_baseline.h) that bench/perf_compare diffs against the
// committed repo-root baseline in scripts/check.sh's perf leg and in CI.
//
// Three layers of measurement, all min-of-K with MAD-based noise estimation:
//
//  * micro:   SipHash, capability verify, Bloom drop-filter record/query,
//             token-bucket admission — ns/op of the per-packet primitives —
//             plus the control plane's aggregation plan over 512 paths;
//  * queue:   each of the seven defense disciplines driven by three
//             synthetic load shapes (steady / cbr flood / shrew pulses) —
//             packets/sec per (scheme, load) cell, plus the machine-portable
//             gated ratios floc-vs-droptail and the fast-path allocation
//             counts from the scoped counting allocator (steady loads, and
//             FLoc under identity churn with a flow budget), and FLoc's
//             enqueue+dequeue cost with the event journal, the span tracer
//             or the profiler attached, each as a ratio to the detached run;
//  * macro:   a shrunk fig06 attack sweep (TCP-population / CBR / shrew on
//             the FLoc-defended tree) — events/sec and ns/event from the
//             Simulator, a per-Profiler-section ns breakdown that localizes
//             a regression to cap_verify vs dispatch vs link, and the
//             --jobs 1 vs --jobs N sweep speedup from the same wall times
//             RunManifest records; a shrunk fig07 grid (FLoc, Pushback and
//             RED-PD under two CBR strengths) — events/sec; and a shrunk
//             fig13 run of the tick simulator — target-link packets/sec and
//             allocations per 1000 packets.
//
// Debug hook: FLOC_PERF_HANDICAP=<mult> scales every FLoc-attributed timing
// by <mult> before it is recorded. It exists to prove the regression gate
// closes (tests and the acceptance criteria inject a 2x slowdown and expect
// perf_compare to exit nonzero); it must never be set in a real run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/aggregation.h"
#include "core/capability.h"
#include "core/drop_filter.h"
#include "core/floc_queue.h"
#include "core/model.h"
#include "core/token_bucket.h"
#include "inetsim/inet_experiment.h"
#include "netsim/simulator.h"
#include "telemetry/alloc_counter.h"
#include "telemetry/perf_baseline.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracing.h"
#include "topology/defense_factory.h"
#include "util/rng.h"
#include "util/siphash.h"

// Real allocation counts for the alloc.* metrics (program-wide operator
// new/delete replacement; see telemetry/alloc_counter.h).
FLOC_DEFINE_COUNTING_ALLOCATOR

namespace floc {
namespace {

using bench::BenchArgs;
using telemetry::PerfReport;

// Each benchmark stores its result here; the volatile store keeps the
// compiler from eliminating the timed loop as dead code.
volatile std::uint64_t g_sink = 0;

struct SuiteArgs {
  bool quick = false;
  std::string out = "BENCH_perf.json";
  std::uint64_t seed = 1;
  int jobs = 0;  // sweep-speedup parallel leg; 0 = min(4, hardware)
  int repeats = 5;
  int macro_repeats = 3;

  // A malformed or unknown flag prints usage and exits 2: a --seed that is
  // not a non-negative integer or a non-integer --jobs, as in BenchArgs.
  static SuiteArgs parse(int argc, char** argv) {
    SuiteArgs a;
    for (int i = 1; i < argc; ++i) {
      const bool has_value = i + 1 < argc;
      if (std::strcmp(argv[i], "--quick") == 0) {
        a.quick = true;
        a.repeats = 3;
        a.macro_repeats = 2;
      } else if (std::strcmp(argv[i], "--out") == 0 && has_value) {
        a.out = argv[++i];
      } else if (std::strcmp(argv[i], "--seed") == 0 && has_value &&
                 BenchArgs::parse_seed(argv[i + 1], &a.seed)) {
        ++i;
      } else if (std::strcmp(argv[i], "--jobs") == 0 && has_value &&
                 BenchArgs::parse_jobs(argv[i + 1], &a.jobs)) {
        ++i;
      } else {
        std::fprintf(stderr,
                     "usage: %s [--quick] [--out PATH] [--seed N] [--jobs N]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    if (a.jobs <= 0) a.jobs = std::min(4, runner::default_jobs());
    return a;
  }
};

double handicap() {
  static const double h = [] {
    const char* env = std::getenv("FLOC_PERF_HANDICAP");
    const double v = env != nullptr ? std::atof(env) : 1.0;
    return v > 0.0 ? v : 1.0;
  }();
  return h;
}

// --- min-of-K with MAD noise ------------------------------------------------

struct RepeatResult {
  double best = 0.0;   // min (or max when higher is better) over K repeats
  double noise = 0.0;  // relative MAD: median(|x - median|) / median
};

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

RepeatResult summarize(const std::vector<double>& xs, bool higher_is_better) {
  RepeatResult r;
  r.best = higher_is_better ? *std::max_element(xs.begin(), xs.end())
                            : *std::min_element(xs.begin(), xs.end());
  const double med = median_of(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::abs(x - med));
  r.noise = med != 0.0 ? median_of(std::move(dev)) / std::abs(med) : 0.0;
  return r;
}

template <typename Fn>
RepeatResult repeat(int k, bool higher_is_better, Fn&& measure) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) xs.push_back(measure());
  return summarize(xs, higher_is_better);
}

// --- micro benches ----------------------------------------------------------

double ns_siphash(int iters) {
  const SipKey key{0x123, 0x456};
  std::uint64_t acc = 0;
  const std::uint64_t t0 = telemetry::clock_ns();
  for (int i = 0; i < iters; ++i) {
    acc ^= siphash24_words(key, {static_cast<std::uint64_t>(i), 42, 7});
  }
  const std::uint64_t t1 = telemetry::clock_ns();
  g_sink = acc;
  return static_cast<double>(t1 - t0) / iters;
}

double ns_cap_verify(int iters) {
  CapabilityIssuer issuer(0x5EC, 2);
  Packet p;
  p.src = 1;
  p.dst = 99;
  p.path = PathId::of({1, 2, 3});
  // FlocQueue hashes the path once per packet and hands the key to the
  // issuer, so the verify under test starts from that key.
  const std::uint64_t path_key = p.path.key();
  const auto caps = issuer.issue(p.src, p.dst, path_key);
  p.cap0 = caps.cap0;
  p.cap1 = caps.cap1;
  std::uint64_t acc = 0;
  const std::uint64_t t0 = telemetry::clock_ns();
  for (int i = 0; i < iters; ++i) acc += issuer.verify(p, path_key) ? 1 : 0;
  const std::uint64_t t1 = telemetry::clock_ns();
  g_sink = acc;
  return static_cast<double>(t1 - t0) / iters;
}

double ns_bloom_record(int iters) {
  DropFilterConfig cfg;
  cfg.bits = 20;
  ScalableDropFilter filter(cfg);
  double t = 0.0;
  const std::uint64_t t0 = telemetry::clock_ns();
  for (int i = 0; i < iters; ++i) {
    filter.record_drop(static_cast<std::uint64_t>(i) % 100000, t, 0.1);
    t += 1e-5;
  }
  const std::uint64_t t1 = telemetry::clock_ns();
  return static_cast<double>(t1 - t0) / iters;
}

double ns_bloom_query(int iters) {
  DropFilterConfig cfg;
  cfg.bits = 20;
  ScalableDropFilter filter(cfg);
  for (std::uint64_t k = 0; k < 100000; ++k) filter.record_drop(k, 1.0, 0.1);
  double acc = 0.0;
  const std::uint64_t t0 = telemetry::clock_ns();
  for (int i = 0; i < iters; ++i) {
    acc += filter.preferential_drop_prob(static_cast<std::uint64_t>(i) % 100000,
                                         2.0, 0.1);
  }
  const std::uint64_t t1 = telemetry::clock_ns();
  g_sink = static_cast<std::uint64_t>(acc);
  return static_cast<double>(t1 - t0) / iters;
}

double ns_token_bucket(int iters) {
  PathTokenBucket bucket;
  bucket.configure(model::compute_params(mbps(100), 0.05, 30, 1500), 1500);
  double t = 0.0;
  std::uint64_t acc = 0;
  const std::uint64_t t0 = telemetry::clock_ns();
  for (int i = 0; i < iters; ++i) {
    acc += bucket.try_consume(1500, t, true) ? 1 : 0;
    t += 1e-4;
  }
  const std::uint64_t t1 = telemetry::clock_ns();
  g_sink = acc;
  return static_cast<double>(t1 - t0) / iters;
}

// Control plane: one aggregation plan over 512 paths spread over a
// 16 x 64 prefix tree, half of them allowed a bandwidth guarantee (s_max).
double ns_aggregation_plan(int iters) {
  constexpr int kPaths = 512;
  std::vector<PathSnapshot> snaps;
  Rng rng(7);
  for (int i = 0; i < kPaths; ++i) {
    snaps.push_back(PathSnapshot{
        PathId::of({static_cast<AsNumber>(i % 16 + 1),
                    static_cast<AsNumber>(i % 64 + 100),
                    static_cast<AsNumber>(i + 1000)}),
        rng.uniform(), rng.uniform(1.0, 100.0)});
  }
  AggregationConfig cfg;
  cfg.s_max = kPaths / 2;
  const Aggregator agg(cfg);
  std::uint64_t acc = 0;
  const std::uint64_t t0 = telemetry::clock_ns();
  for (int i = 0; i < iters; ++i) {
    acc += static_cast<std::uint64_t>(agg.plan(snaps).identifier_count);
  }
  const std::uint64_t t1 = telemetry::clock_ns();
  g_sink = acc;
  return static_cast<double>(t1 - t0) / iters;
}

// --- scheduler dispatch micro -------------------------------------------------

// Self-rescheduling inline-capture functor: each firing schedules the next,
// so the measured loop is exactly one schedule_in + one dispatch per event —
// the Simulator's steady-state hot path with no queue-discipline work mixed
// in. 64 concurrent chains at staggered periods keep several wheel levels
// live.
struct DispatchTicker {
  Simulator* sim;
  TimeSec dt;
  std::uint64_t* fuel;
  void operator()() const {
    if (*fuel == 0) return;
    --*fuel;
    sim->schedule_in(dt, DispatchTicker{*this});
  }
};
static_assert(Simulator::Callback::fits_inline<DispatchTicker>());

void seed_dispatch_chains(Simulator& sim, std::uint64_t* fuel) {
  for (int i = 0; i < 64; ++i) {
    sim.schedule_in(1e-6 * (i + 1),
                    DispatchTicker{&sim, 1e-5 + 1.7e-7 * i, fuel});
  }
}

double sim_dispatch_ns(int events) {
  Simulator sim;
  auto fuel = static_cast<std::uint64_t>(events);
  seed_dispatch_chains(sim, &fuel);
  sim.run_until(0.002);  // warm: arena chunks, wheel vectors at high-water
  const std::uint64_t before = sim.events_processed();
  const std::uint64_t t0 = telemetry::clock_ns();
  sim.run();
  const std::uint64_t t1 = telemetry::clock_ns();
  const std::uint64_t done = sim.events_processed() - before;
  g_sink = done;
  return static_cast<double>(t1 - t0) / static_cast<double>(done);
}

double sim_dispatch_allocs_per_kevent(int events) {
  Simulator sim;
  auto fuel = static_cast<std::uint64_t>(events);
  seed_dispatch_chains(sim, &fuel);
  sim.run_until(0.002);
  const std::uint64_t before = sim.events_processed();
  telemetry::ScopedAllocCount guard;
  sim.run();
  const std::uint64_t done = sim.events_processed() - before;
  return static_cast<double>(guard.allocs()) * 1000.0 /
         static_cast<double>(done);
}

// --- queue-discipline matrix ------------------------------------------------

enum class Load { kSteady, kCbr, kShrew };
const char* to_string(Load l) {
  switch (l) {
    case Load::kSteady: return "steady";
    case Load::kCbr: return "cbr";
    case Load::kShrew: return "shrew";
  }
  return "?";
}
constexpr Load kLoads[] = {Load::kSteady, Load::kCbr, Load::kShrew};
constexpr DefenseScheme kSchemes[] = {
    DefenseScheme::kDropTail, DefenseScheme::kRed,  DefenseScheme::kRedPd,
    DefenseScheme::kPushback, DefenseScheme::kPriorityFair,
    DefenseScheme::kDrr,      DefenseScheme::kFloc};

std::unique_ptr<QueueDisc> make_queue(DefenseScheme scheme,
                                      std::uint64_t seed) {
  DefenseFactoryConfig cfg;
  cfg.link_bandwidth = mbps(500);
  cfg.buffer_packets = 1024;
  cfg.seed = seed;
  cfg.legit_classifier = [](FlowId f) { return f < 1000; };
  return make_defense_queue(scheme, cfg);
}

// Drives enqueue+dequeue with a deterministic arrival pattern; returns
// wall ns per offered packet. `paths` 0..5 are legitimate, 6..7 carry the
// flood when the load shape has one.
double queue_workload_ns(QueueDisc& q, Load load, int packets) {
  PathId paths[8];
  for (int i = 0; i < 8; ++i) {
    paths[i] = PathId::of({static_cast<AsNumber>(i + 1),
                           static_cast<AsNumber>(100 + i)});
  }
  const double dt = 1500.0 * 8.0 / mbps(500);  // one full packet at link rate
  double t = 0.0;
  const std::uint64_t t0 = telemetry::clock_ns();
  switch (load) {
    case Load::kSteady:
      // Offered load == link rate, spread over legitimate paths/flows.
      for (int i = 0; i < packets; ++i) {
        Packet p;
        p.flow = static_cast<FlowId>(i % 192);
        p.src = static_cast<HostAddr>(p.flow + 1);
        p.dst = 9999;
        p.path = paths[i % 6];
        q.enqueue(std::move(p), t);
        q.dequeue(t);
        t += dt;
      }
      break;
    case Load::kCbr:
      // 3x overload: two flood paths offer twice the legitimate volume, the
      // drain keeps link pace, so the drop/admission machinery runs hot.
      for (int i = 0; i < packets; ++i) {
        Packet p;
        const bool attack = i % 3 != 0;
        p.flow = attack ? static_cast<FlowId>(1000 + i % 32)
                        : static_cast<FlowId>(i % 192);
        p.src = static_cast<HostAddr>(p.flow + 1);
        p.dst = 9999;
        p.path = attack ? paths[6 + i % 2] : paths[i % 6];
        q.enqueue(std::move(p), t);
        if (i % 3 == 0) q.dequeue(t);
        t += dt / 3.0;
      }
      break;
    case Load::kShrew:
      // Pulses: 48-packet bursts at 8x link pace, then a quiet gap that
      // drains the queue and refills the token buckets.
      for (int i = 0; i < packets; ++i) {
        Packet p;
        const bool burst_pkt = i % 64 < 48;
        p.flow = burst_pkt ? static_cast<FlowId>(1000 + i % 16)
                           : static_cast<FlowId>(i % 192);
        p.src = static_cast<HostAddr>(p.flow + 1);
        p.dst = 9999;
        p.path = burst_pkt ? paths[6 + i % 2] : paths[i % 6];
        q.enqueue(std::move(p), t);
        q.dequeue(t);
        t += burst_pkt ? dt / 8.0 : dt;
        if (i % 64 == 63) {
          t += 0.005;  // inter-pulse gap
          while (q.dequeue(t)) {
          }
        }
      }
      break;
  }
  const std::uint64_t t1 = telemetry::clock_ns();
  g_sink = q.drops() + q.admissions();
  return static_cast<double>(t1 - t0) / packets;
}

// FLoc under identity churn against a budgeted flow table: each of 8 paths'
// accounting keys rotate through a pool five times the per-path flow budget
// (48), 9 packets per key, at 3x link overload, so most packets are dropped
// into a fresh flow record's MTD ring and every few keys evict a batch.
// Returns heap allocations per 1000 offered packets over 2 s of simulated
// time after a 1 s warm-up, control loop included. Deterministic.
double floc_churn_allocs_per_kpkt(std::uint64_t seed) {
  constexpr int kPaths = 8;
  constexpr int kPool = 5 * 48;
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(500);
  cfg.buffer_packets = 1024;
  cfg.flow_budget.capacity = 48;
  cfg.rng_seed = seed;
  FlocQueue q(cfg);
  PathId paths[kPaths];
  for (int i = 0; i < kPaths; ++i) {
    paths[i] = PathId::of({static_cast<AsNumber>(i + 1),
                           static_cast<AsNumber>(100 + i)});
  }
  const double dt = 1500.0 * 8.0 / mbps(500) / 3.0;
  const int per_second = static_cast<int>(1.0 / dt);
  int i = 0;
  const auto run = [&](int offers) {
    for (const int end = i + offers; i < end; ++i) {
      const int key = i / 9;  // consecutive packets share a key
      Packet p;
      p.flow = static_cast<FlowId>((key % kPaths) * 100000 +
                                   (key / kPaths) % kPool);
      p.src = static_cast<HostAddr>(p.flow + 1);
      p.dst = 9999;
      p.path = paths[key % kPaths];
      q.enqueue(std::move(p), i * dt);
      if (i % 3 == 0) q.dequeue(i * dt);
    }
  };
  run(per_second);  // warm-up
  telemetry::ScopedAllocCount guard;
  run(2 * per_second);
  g_sink = q.drops();
  return static_cast<double>(guard.allocs()) * 1000.0 / (2 * per_second);
}

// --- FLoc with observers attached --------------------------------------------

enum class Observer { kNone, kJournal, kTracer, kProfiler };
const char* to_string(Observer o) {
  switch (o) {
    case Observer::kNone: return "detached";
    case Observer::kJournal: return "journal";
    case Observer::kTracer: return "tracer";
    case Observer::kProfiler: return "profiler";
  }
  return "?";
}

// FLoc enqueue+dequeue at ~10 Gbps of full-size packets over 64 paths and
// 3,200 flows with one observer attached; returns wall ns per packet of the
// second of two equal passes (the first grows the tables). The journal
// records every defense event except per-packet drops (counters stay
// registry-polled); the tracer gets a queue-residency span per packet,
// rooted here in the link's place, that FLoc annotates with its verdict;
// the profiler times enqueue, dequeue, control and cap-verify.
double ns_floc_observed(Observer observer, int packets) {
  constexpr int kPaths = 64;
  FlocConfig cfg;
  cfg.link_bandwidth = gbps(10);
  cfg.buffer_packets = 4096;
  FlocQueue q(cfg);
  telemetry::Telemetry tel;
  telemetry::Tracer tracer(/*max_spans=*/4096);
  telemetry::Profiler prof;
  switch (observer) {
    case Observer::kNone:
      break;
    case Observer::kJournal:
      tel.journal.set_enabled(telemetry::EventKind::kDrop, false);
      q.attach_telemetry(&tel);
      break;
    case Observer::kTracer:
      q.set_tracer(&tracer);
      break;
    case Observer::kProfiler:
      q.set_profiler(&prof);
      break;
  }
  const bool traced = observer == Observer::kTracer;
  PathId ids[kPaths];
  for (int i = 0; i < kPaths; ++i) {
    ids[i] = PathId::of(
        {static_cast<AsNumber>(i + 1), static_cast<AsNumber>(100 + i)});
  }
  double t = 0.0;
  FlowId flow = 0;
  auto pass = [&] {
    const std::uint64_t t0 = telemetry::clock_ns();
    for (int i = 0; i < packets; ++i) {
      Packet p;
      p.flow = flow % (FlowId{kPaths} * 50);
      p.src = static_cast<HostAddr>(p.flow + 1);
      p.dst = 9999;
      p.path = ids[flow % FlowId{kPaths}];
      ++flow;
      telemetry::SpanId span = 0;
      if (traced) {
        span = tracer.begin(t, p.flow, 0, telemetry::SpanKind::kQueue,
                            /*pid=*/1, /*tid=*/0, p.seq, p.size_bytes);
        p.span = SpanContext{p.flow, span, 0};
      }
      q.enqueue(std::move(p), t);
      q.dequeue(t);
      if (traced) tracer.end(span, t);
      t += 1.2e-6;
    }
    return telemetry::clock_ns() - t0;
  };
  pass();
  const std::uint64_t ns = pass();
  g_sink = q.admissions();
  return static_cast<double>(ns) / packets;
}

// --- macro: shrunk fig06 sweep ---------------------------------------------

TreeScenarioConfig macro_config(AttackType attack, std::uint64_t seed,
                                bool quick) {
  TreeScenarioConfig cfg;
  cfg.tree_degree = 3;
  cfg.tree_height = 2;  // 9 leaves
  cfg.legit_per_leaf = 2;
  cfg.attack_leaf_count = 2;
  cfg.attack_per_leaf = 3;
  cfg.target_link = mbps(10);
  cfg.internal_link = mbps(40);
  cfg.access_link = mbps(5);
  cfg.legit_file_bytes = 200'000;
  cfg.legit_start_spread = 1.0;
  cfg.attack = attack;
  cfg.attack_rate = mbps(2.0);
  cfg.attack_start = 2.0;
  cfg.scheme = DefenseScheme::kFloc;
  cfg.duration = quick ? 8.0 : 14.0;
  cfg.measure_start = 2.0;
  cfg.measure_end = cfg.duration;
  cfg.seed = seed;
  if (attack == AttackType::kShrew) {
    cfg.shrew_period = 0.05;
    cfg.shrew_duty = 0.25;
  }
  return cfg;
}

struct SectionStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

struct SweepResult {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::map<std::string, SectionStats> sections;  // aggregated across cases
};

SweepResult run_macro_sweep(const SuiteArgs& a, int jobs,
                            std::uint64_t sweep_salt) {
  const AttackType attacks[] = {AttackType::kTcpPopulation, AttackType::kCbr,
                                AttackType::kShrew};
  struct CaseOut {
    std::uint64_t events = 0;
    std::vector<std::pair<std::string, SectionStats>> sections;
  };
  SweepResult out;
  out.wall_seconds = runner::timed_seconds([&] {
    const auto cases = runner::run_indexed<CaseOut>(
        jobs, std::size(attacks), [&](std::size_t i) {
          TreeScenario s(macro_config(
              attacks[i],
              derive_seed(a.seed, i + sweep_salt, kSeedStreamTreeScenario),
              a.quick));
          telemetry::Profiler prof;
          if (s.floc_queue() != nullptr) s.floc_queue()->set_profiler(&prof);
          s.target_link()->set_profiler(prof.section("link.enqueue"),
                                        prof.section("link.dequeue"));
          s.sim().set_profile_section(prof.section("sim.dispatch"));
          s.run();
          CaseOut c;
          c.events = s.sim().events_processed();
          for (const auto& sec : prof.sections()) {
            c.sections.emplace_back(sec->name,
                                    SectionStats{sec->calls, sec->total_ns});
          }
          return c;
        });
    for (const auto& c : cases) {
      out.events += c.events;
      for (const auto& [name, st] : c.sections) {
        SectionStats& agg = out.sections[name];
        agg.calls += st.calls;
        agg.total_ns += st.total_ns;
      }
    }
  });
  return out;
}

// --- macro: shrunk fig07 grid ----------------------------------------------

// Fig. 7's scheme x attack-strength grid on the macro tree: FLoc, Pushback
// and RED-PD on the target link under CBR floods of 0.5 and 2 Mbps per bot,
// run serially with the same seeds every repeat. Unlike fig06 most cases run
// a baseline discipline, so netsim and transport dominate the events/s.
double fig07_macro_events_per_sec(const SuiteArgs& a) {
  const DefenseScheme schemes[] = {DefenseScheme::kFloc,
                                   DefenseScheme::kPushback,
                                   DefenseScheme::kRedPd};
  std::uint64_t events = 0;
  const double wall = runner::timed_seconds([&] {
    std::uint64_t i = 0;
    for (const DefenseScheme scheme : schemes) {
      for (const double rate : {0.5, 2.0}) {
        TreeScenarioConfig cfg = macro_config(
            AttackType::kCbr,
            derive_seed(a.seed, 100 + i++, kSeedStreamTreeScenario), a.quick);
        cfg.scheme = scheme;
        cfg.attack_rate = mbps(rate);
        TreeScenario s(cfg);
        s.run();
        events += s.sim().events_processed();
      }
    }
  });
  return static_cast<double>(events) / wall;
}

// --- macro: shrunk fig13 tick simulator ------------------------------------

// Fig. 13's localized attack on one f-root world at scale 0.02, all five
// policies through run_inet_experiment: the tick simulator end to end.
struct TickMacro {
  double wall_seconds = 0.0;
  std::uint64_t pkts = 0;  // target-link packets: delivered plus dropped
  std::uint64_t allocs = 0;
};

TickMacro run_fig13_macro(const SuiteArgs& a) {
  InetExperimentConfig cfg;  // f-root, 100 attack ASes, 30% overlap
  cfg.scale = 0.02;
  cfg.ticks = a.quick ? 600 : 1000;
  cfg.seed = derive_seed(a.seed, 0, kSeedStreamInetTopology);
  TickMacro out;
  std::vector<InetScenarioRow> rows;
  telemetry::ScopedAllocCount allocs;
  out.wall_seconds =
      runner::timed_seconds([&] { rows = run_inet_experiment(cfg); });
  out.allocs = allocs.allocs();
  for (const InetScenarioRow& row : rows) {
    const TickResults& r = row.results;
    out.pkts += r.delivered_legit_legit + r.delivered_legit_attack +
                r.delivered_attack + r.dropped_target;
  }
  return out;
}

// --- suite ------------------------------------------------------------------

int run_suite(const SuiteArgs& a) {
  PerfReport report;
  report.git = bench::git_describe();
  report.mode = a.quick ? "quick" : "full";
  report.seed = a.seed;
  report.repeats = a.repeats;

  bench::BenchArgs margs;
  margs.seed = a.seed;
  margs.jobs = a.jobs;
  margs.scale = a.quick ? 0.08 : 0.12;
  bench::RunManifest manifest("perf_suite", margs);
  manifest.note("mode", report.mode);
  manifest.note("handicap", handicap());

  const int micro_iters = a.quick ? 200'000 : 1'000'000;
  const int queue_pkts = a.quick ? 60'000 : 200'000;

  std::printf("== perf_suite (%s, seed %llu, %d repeats) ==\n",
              report.mode.c_str(), static_cast<unsigned long long>(a.seed),
              a.repeats);
  if (handicap() != 1.0) {
    std::printf("!! FLOC_PERF_HANDICAP=%g: FLoc timings are artificially "
                "scaled — debug runs only\n",
                handicap());
  }

  // Micro: per-packet primitives.
  struct Micro {
    const char* name;
    double (*fn)(int);
  };
  const Micro micros[] = {
      {"micro.siphash.ns_per_op", ns_siphash},
      {"micro.cap_verify.ns_per_op", ns_cap_verify},
      {"micro.bloom_record.ns_per_op", ns_bloom_record},
      {"micro.bloom_query.ns_per_op", ns_bloom_query},
      {"micro.token_bucket.ns_per_op", ns_token_bucket},
  };
  for (const Micro& m : micros) {
    const RepeatResult r = repeat(a.repeats, /*higher_is_better=*/false,
                                  [&] { return m.fn(micro_iters); });
    report.add(m.name, r.best, "ns/op", r.noise, false, /*gate=*/false);
    std::printf("%-38s %10.1f ns/op  (noise %.1f%%)\n", m.name, r.best,
                100.0 * r.noise);
  }

  // Control plane: aggregation plan over 512 paths (trajectory only).
  {
    const RepeatResult r =
        repeat(a.repeats, /*higher_is_better=*/false,
               [&] { return ns_aggregation_plan(micro_iters / 1000); });
    const char* name = "micro.aggregation_plan_512.ns_per_op";
    report.add(name, r.best, "ns/op", r.noise, false, /*gate=*/false);
    std::printf("%-38s %10.1f ns/op  (noise %.1f%%)\n", name, r.best,
                100.0 * r.noise);
  }

  // Scheduler dispatch: pure schedule->fire throughput of the timer wheel
  // (trajectory), and its steady-state allocation count (gated: zero).
  const int dispatch_events = a.quick ? 300'000 : 1'000'000;
  {
    const RepeatResult r =
        repeat(a.repeats, /*higher_is_better=*/false,
               [&] { return sim_dispatch_ns(dispatch_events); });
    const char* name = "sim.dispatch.wheel.events_per_sec";
    report.add(name, 1e9 / r.best, "events/s", r.noise,
               /*higher_is_better=*/true, /*gate=*/false);
    std::printf("%-38s %10.0f events/s (noise %.1f%%)\n", name, 1e9 / r.best,
                100.0 * r.noise);

    const RepeatResult alloc =
        repeat(a.repeats, /*higher_is_better=*/false, [&] {
          return sim_dispatch_allocs_per_kevent(dispatch_events / 4);
        });
    name = "alloc.sim_dispatch.wheel.allocs_per_kevent";
    report.add(name, alloc.best, "allocs/kevent", alloc.noise, false,
               /*gate=*/true);
    std::printf("%-38s %10.2f allocs/kevent (noise %.1f%%)\n", name,
                alloc.best, 100.0 * alloc.noise);
  }

  // Queue matrix: 7 disciplines x 3 load shapes. FLoc timings take the
  // handicap; the gated metric is the machine-portable floc/droptail ratio.
  for (const Load load : kLoads) {
    double droptail_ns = 0.0, droptail_noise = 0.0;
    double floc_ns = 0.0, floc_noise = 0.0;
    for (const DefenseScheme scheme : kSchemes) {
      const RepeatResult r =
          repeat(a.repeats, /*higher_is_better=*/false, [&] {
            auto q = make_queue(scheme, a.seed);
            queue_workload_ns(*q, load, queue_pkts / 10);  // warm-up
            return queue_workload_ns(*q, load, queue_pkts);
          });
      double ns = r.best;
      if (scheme == DefenseScheme::kFloc) ns *= handicap();
      if (scheme == DefenseScheme::kDropTail) {
        droptail_ns = ns;
        droptail_noise = r.noise;
      }
      if (scheme == DefenseScheme::kFloc) {
        floc_ns = ns;
        floc_noise = r.noise;
      }
      char name[96];
      std::snprintf(name, sizeof(name), "queue.%s.%s.pkts_per_sec",
                    to_string(scheme), to_string(load));
      report.add(name, 1e9 / ns, "pkts/s", r.noise, /*higher_is_better=*/true,
                 /*gate=*/false);
      std::printf("%-38s %10.0f pkts/s (noise %.1f%%)\n", name, 1e9 / ns,
                  100.0 * r.noise);
    }
    char name[96];
    std::snprintf(name, sizeof(name), "ratio.floc_vs_droptail.%s",
                  to_string(load));
    // Noise of a ratio of two min-of-K measurements: conservatively the sum
    // of the operands' measured noise (first-order error propagation).
    report.add(name, floc_ns / droptail_ns, "ratio",
               floc_noise + droptail_noise, false, /*gate=*/true);
    std::printf("%-38s %10.2f x\n", name, floc_ns / droptail_ns);
  }

  // Fast-path allocation counts (counting allocator; machine-portable).
  for (const DefenseScheme scheme :
       {DefenseScheme::kDropTail, DefenseScheme::kFloc}) {
    const RepeatResult r = repeat(a.repeats, /*higher_is_better=*/false, [&] {
      auto q = make_queue(scheme, a.seed);
      queue_workload_ns(*q, Load::kSteady, queue_pkts / 10);  // warm tables
      telemetry::ScopedAllocCount guard;
      queue_workload_ns(*q, Load::kSteady, queue_pkts);
      return static_cast<double>(guard.allocs()) * 1000.0 / queue_pkts;
    });
    char name[96];
    std::snprintf(name, sizeof(name), "alloc.%s_steady.allocs_per_kpkt",
                  to_string(scheme));
    report.add(name, r.best, "allocs/kpkt", r.noise, false, /*gate=*/true);
    std::printf("%-38s %10.2f allocs/kpkt (noise %.1f%%)\n", name, r.best,
                100.0 * r.noise);
  }
  {
    const RepeatResult r =
        repeat(a.repeats, /*higher_is_better=*/false,
               [&] { return floc_churn_allocs_per_kpkt(a.seed); });
    const char* name = "alloc.floc_churn.allocs_per_kpkt";
    report.add(name, r.best, "allocs/kpkt", r.noise, false, /*gate=*/true);
    std::printf("%-38s %10.2f allocs/kpkt (noise %.1f%%)\n", name, r.best,
                100.0 * r.noise);
  }

  // Observer overhead: FLoc enqueue+dequeue with the journal, the tracer or
  // the profiler attached, as a ratio to the detached run (trajectory only;
  // the handicap cancels in the ratio). Each repeat measures all four in
  // turn, so host-speed drift hits the numerator and denominator alike.
  {
    constexpr Observer kObservers[] = {Observer::kNone, Observer::kJournal,
                                       Observer::kTracer, Observer::kProfiler};
    std::vector<double> ns[std::size(kObservers)];
    for (int k = 0; k < a.repeats; ++k) {
      for (std::size_t o = 0; o < std::size(kObservers); ++o) {
        ns[o].push_back(ns_floc_observed(kObservers[o], queue_pkts));
      }
    }
    const RepeatResult detached = summarize(ns[0], false);
    for (std::size_t o = 1; o < std::size(kObservers); ++o) {
      const RepeatResult r = summarize(ns[o], false);
      char name[96];
      std::snprintf(name, sizeof(name), "ratio.floc_observed.%s_vs_detached",
                    to_string(kObservers[o]));
      report.add(name, r.best / detached.best, "x",
                 r.noise + detached.noise, false, /*gate=*/false);
      std::printf("%-38s %10.2f x (%.1f vs %.1f ns/pkt)\n", name,
                  r.best / detached.best, r.best, detached.best);
    }
  }

  // Macro: shrunk fig06 sweep — events/sec, section breakdown, speedup.
  std::vector<double> serial_walls, parallel_walls, events_per_sec;
  SweepResult best_serial;
  for (int rep = 0; rep < a.macro_repeats; ++rep) {
    const std::uint64_t salt = static_cast<std::uint64_t>(rep) * 1000;
    SweepResult serial = run_macro_sweep(a, 1, salt);
    const SweepResult parallel = run_macro_sweep(a, a.jobs, salt);
    serial_walls.push_back(serial.wall_seconds);
    parallel_walls.push_back(parallel.wall_seconds);
    events_per_sec.push_back(static_cast<double>(serial.events) /
                             serial.wall_seconds);
    if (rep == 0 || serial.wall_seconds < best_serial.wall_seconds) {
      best_serial = std::move(serial);
    }
  }
  {
    const double best_eps =
        *std::max_element(events_per_sec.begin(), events_per_sec.end());
    const double med = median_of(events_per_sec);
    std::vector<double> dev;
    for (double x : events_per_sec) dev.push_back(std::abs(x - med));
    const double noise = med != 0.0 ? median_of(std::move(dev)) / med : 0.0;
    report.add("macro.fig06.events_per_sec", best_eps, "events/s", noise,
               /*higher_is_better=*/true, /*gate=*/false);
    report.add("macro.fig06.ns_per_event", 1e9 / best_eps, "ns/event", noise,
               false, /*gate=*/false);
    const double speedup = median_of(serial_walls) / median_of(parallel_walls);
    report.add("sweep.fig06.speedup", speedup, "x", noise,
               /*higher_is_better=*/true, /*gate=*/false);
    report.add("sweep.fig06.jobs", static_cast<double>(a.jobs), "jobs", 0.0,
               true, /*gate=*/false);
    std::printf("%-38s %10.0f events/s (noise %.1f%%)\n",
                "macro.fig06.events_per_sec", best_eps, 100.0 * noise);
    std::printf("%-38s %10.2f x (--jobs %d)\n", "sweep.fig06.speedup", speedup,
                a.jobs);
  }

  // Macro: shrunk fig07 grid — events/sec (trajectory).
  {
    const RepeatResult eps = repeat(a.macro_repeats, /*higher_is_better=*/true,
                                    [&] { return fig07_macro_events_per_sec(a); });
    report.add("macro.fig07.events_per_sec", eps.best, "events/s", eps.noise,
               /*higher_is_better=*/true, /*gate=*/false);
    std::printf("%-38s %10.0f events/s (noise %.1f%%)\n",
                "macro.fig07.events_per_sec", eps.best, 100.0 * eps.noise);
  }

  // Macro: shrunk fig13 tick simulator — packets/s (trajectory) and
  // allocations per 1000 target-link packets, setup included (gated: the
  // count is deterministic).
  {
    std::vector<double> pkts_per_sec, allocs_per_kpkt;
    for (int rep = 0; rep < a.macro_repeats; ++rep) {
      const TickMacro m = run_fig13_macro(a);
      pkts_per_sec.push_back(static_cast<double>(m.pkts) / m.wall_seconds);
      allocs_per_kpkt.push_back(static_cast<double>(m.allocs) * 1000.0 /
                                static_cast<double>(m.pkts));
    }
    const RepeatResult pps = summarize(pkts_per_sec, /*higher_is_better=*/true);
    const RepeatResult alloc = summarize(allocs_per_kpkt, false);
    report.add("macro.fig13.pkts_per_sec", pps.best, "pkts/s", pps.noise,
               /*higher_is_better=*/true, /*gate=*/false);
    report.add("alloc.fig13.allocs_per_kpkt", alloc.best, "allocs/kpkt",
               alloc.noise, false, /*gate=*/true);
    std::printf("%-38s %10.0f pkts/s (noise %.1f%%)\n",
                "macro.fig13.pkts_per_sec", pps.best, 100.0 * pps.noise);
    std::printf("%-38s %10.2f allocs/kpkt (noise %.1f%%)\n",
                "alloc.fig13.allocs_per_kpkt", alloc.best, 100.0 * alloc.noise);
  }

  for (const auto& [sec, st] : best_serial.sections) {
    if (st.calls == 0) continue;
    double ns = static_cast<double>(st.total_ns) / static_cast<double>(st.calls);
    std::string prom = sec;
    if (prom.rfind("floc.", 0) == 0) ns *= handicap();
    const std::string name = "profile." + prom + ".ns_per_call";
    // Section means wobble with scheduler noise; trajectory only.
    report.add(name, ns, "ns/call", 0.10, false, /*gate=*/false);
    std::printf("%-38s %10.1f ns/call (%llu calls)\n", name.c_str(), ns,
                static_cast<unsigned long long>(st.calls));
  }

  std::string err;
  if (!report.save(a.out, &err)) {
    std::fprintf(stderr, "perf_suite: %s\n", err.c_str());
    return 1;
  }
  manifest.add_artifact(a.out);
  manifest.write();
  std::printf("\nwrote %s (%zu metrics)\n", a.out.c_str(),
              report.metrics.size());
  return 0;
}

}  // namespace
}  // namespace floc

int main(int argc, char** argv) {
  return floc::run_suite(floc::SuiteArgs::parse(argc, argv));
}
