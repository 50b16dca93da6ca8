// Whole-scenario benchmark driver.
//
// Runs one workload -- a fixed set of seeded simulation cases -- on one
// thread, times each case's set-up (world construction) and run phase, checks
// every case's output, and prints one JSON document of raw measurements on
// stdout. run.py reduces that document to the benchmark's metrics.
//
//   scenbench_driver --workload floc_flood --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//   floc_flood      Fig. 5 tree, FLoc, TCP-population / CBR / shrew attacks
//   floc_churn      Fig. 5 tree, FLoc with state budgets, identity churn
//   baseline_flood  Fig. 5 tree, CBR attack, drop-tail / RED-PD / Pushback
//   inet_tick       Fig. 13 localized attack, three worlds per Skitter preset
//
// Layers are measured from outside: the driver times the calls it makes
// itself and attaches its own Profiler sections through the seams the
// simulator already exposes (Simulator::set_profile_section,
// Link::set_profiler on the target link, FlocQueue::set_profiler). With
// --trace 0 no section is attached; with --trace 1 untraced and traced
// repetitions alternate so their ratio is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/floc_queue.h"
#include "inetsim/inet_experiment.h"
#include "inetsim/tick_sim.h"
#include "telemetry/alloc_counter.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracing.h"
#include "topology/bot_distribution.h"
#include "topology/skitter_gen.h"
#include "topology/tree_scenario.h"
#include "util/json.h"
#include "util/seed.h"

// Real allocation counts for allocs_per_kpkt (program-wide operator
// new/delete replacement; see telemetry/alloc_counter.h).
FLOC_DEFINE_COUNTING_ALLOCATOR

namespace floc::scenbench {
namespace {

using telemetry::clock_ns;
using telemetry::Profiler;

// ---- Sizing ---------------------------------------------------------------

// Fig. 5 tree at the benches' --quick scale.
constexpr double kTreeScale = 0.08;
constexpr TimeSec kFloodDuration = 40.0;
constexpr TimeSec kFloodMeasureStart = 15.0;
constexpr TimeSec kChurnDuration = 20.0;
constexpr TimeSec kChurnMeasureStart = 10.0;

// Fig. 13 at a reduced population and run length. Three worlds per Skitter
// preset: the legitimate share varies with the generated tree, and nine
// worlds keep its spread across master seeds near 5%.
constexpr double kInetScale = 0.02;
constexpr int kInetTicks = 1000;
constexpr std::size_t kInetPresets = 3;
constexpr std::size_t kInetWorlds = 3 * kInetPresets;
constexpr int kInetAttackAses = 100;
constexpr double kInetOverlap = 0.3;

// Construct-only repetitions before each timed one; setup_s is the median
// over all of them.
constexpr int kSetupRepsPerRun = 10;
constexpr int kMinRunReps = 3;
constexpr int kMinTracedPairs = 2;
constexpr int kChannelRounds = 3;

// Paper-claim floors on a FLoc case's legitimate-path share of the target
// link, as a multiple of the legitimate paths' fair share (legit leaves /
// leaves). Fig. 6: legitimate paths keep about their fair share under a
// TCP-population attack and gain under CBR and shrew.
constexpr double kFloorTcpPopulation = 0.85;
constexpr double kFloorFixedRate = 0.95;
constexpr double kFloorChurn = 0.75;

// ---- Options --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload floc_flood|floc_churn|baseline_flood|"
               "inet_tick --seed N --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage(argv[0]);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage(argv[0]);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage(argv[0]);
      o.trace = v[0] == '1';
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload.empty()) usage(argv[0]);
  return o;
}

// ---- Outcome digest -------------------------------------------------------

// FNV-1a over the bytes of every outcome value: two runs of one case agree
// on the digest iff they delivered the same class bytes, dropped the same
// packets for the same reasons and processed the same events.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001B3ULL;
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// ---- Profiler sections ----------------------------------------------------

// One profiled section with its place in the nesting tree. The driver
// declares the tree; run.py derives self time by subtraction.
struct SectionSpec {
  std::string name;
  std::string parent;  // empty for the root
  std::string layer;
  std::string timer = "scoped";  // or "dispatch": which calibration applies
};

struct SectionTotals {
  SectionSpec spec;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

// Sums sections of the same name across the cases of one repetition.
class ProfileAccumulator {
 public:
  void add(const std::vector<SectionSpec>& specs, const Profiler& prof) {
    for (const SectionSpec& spec : specs) {
      SectionTotals& t = find_or_add(spec);
      for (const auto& s : prof.sections()) {
        if (s->name == spec.name) {
          t.calls += s->calls;
          t.total_ns += s->total_ns;
        }
      }
    }
  }
  void add_manual(const SectionSpec& spec, std::uint64_t calls,
                  std::uint64_t ns) {
    SectionTotals& t = find_or_add(spec);
    t.calls += calls;
    t.total_ns += ns;
  }
  const std::vector<SectionTotals>& totals() const { return totals_; }

 private:
  SectionTotals& find_or_add(const SectionSpec& spec) {
    for (SectionTotals& t : totals_) {
      if (t.spec.name == spec.name) return t;
    }
    totals_.push_back(SectionTotals{spec, 0, 0});
    return totals_.back();
  }
  std::vector<SectionTotals> totals_;
};

// What one timer costs, for subtracting the instrumentation from measured
// section totals: `inner_ns` lands inside the interval the timer records,
// `outer_ns` is its whole cost to the enclosing section.
struct TimerCost {
  double inner_ns = 0.0;
  double outer_ns = 0.0;
};

// Two kinds of timer feed the sections: telemetry::ScopedTimer (Link,
// FlocQueue, the driver's TickSim::run) and the steady-clock pair inside
// Simulator::dispatch. They are calibrated separately.
struct Calibration {
  double clock_read_ns = 0.0;
  TimerCost scoped;
  TimerCost dispatch;
};

volatile std::uint64_t g_sink = 0;

// Stand-in for a callback's work. A clock read costs more amid in-flight
// instructions than in an idle loop, so the timers are calibrated around
// this rather than around nothing. Reads and writes g_sink so the compiler
// cannot move it out of the timed interval.
void busy_work() {
  std::uint64_t x = g_sink;
  for (int k = 0; k < 16; ++k) x = x * 0x9E3779B97F4A7C15ULL + (x >> 29);
  g_sink = x;
}

constexpr int kCalibrationIters = 50000;

// Wall ns of kCalibrationIters busy_work events on a Simulator, with
// `section` attached to its dispatch (or not).
double sim_run_ns(Profiler::Section* section) {
  Simulator sim;
  sim.set_profile_section(section);
  for (int i = 0; i < kCalibrationIters; ++i) {
    sim.schedule_at(i * 1e-6, [] { busy_work(); });
  }
  const std::uint64_t t0 = clock_ns();
  sim.run();
  return static_cast<double>(clock_ns() - t0);
}

// Measured right before each traced repetition: the host's speed drifts, and
// a calibration from another moment subtracts the wrong cost. Each cost is
// the difference between the same work run timed and bare. Contention only
// ever slows a loop down, so each loop's time is its fastest trial.
Calibration calibrate() {
  constexpr int kTrials = 9;
  constexpr double n = kCalibrationIters;
  std::vector<double> reads, work, s_timed, s_recorded, d_bare, d_timed,
      d_recorded;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::uint64_t t0 = clock_ns();
    std::uint64_t acc = 0;
    for (int i = 0; i < kCalibrationIters; ++i) acc += clock_ns();
    g_sink = acc;
    reads.push_back(static_cast<double>(clock_ns() - t0));

    t0 = clock_ns();
    for (int i = 0; i < kCalibrationIters; ++i) busy_work();
    work.push_back(static_cast<double>(clock_ns() - t0));

    Profiler prof;
    Profiler::Section* sec = prof.section("calibrate.scoped");
    t0 = clock_ns();
    for (int i = 0; i < kCalibrationIters; ++i) {
      telemetry::ScopedTimer timer(sec);
      busy_work();
    }
    s_timed.push_back(static_cast<double>(clock_ns() - t0));
    s_recorded.push_back(static_cast<double>(sec->total_ns));

    Profiler::Section* dsec = prof.section("calibrate.dispatch");
    d_bare.push_back(sim_run_ns(nullptr));
    d_timed.push_back(sim_run_ns(dsec));
    d_recorded.push_back(static_cast<double>(dsec->total_ns));
  }
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double w = fastest(work);
  return Calibration{
      fastest(reads) / n,
      {(fastest(s_recorded) - w) / n, (fastest(s_timed) - w) / n},
      {(fastest(d_recorded) - w) / n,
       (fastest(d_timed) - fastest(d_bare)) / n}};
}

// ---- Per-case results -----------------------------------------------------

struct DropName {
  DropReason reason;
  const char* name;
};
constexpr DropName kFlocDrops[] = {
    {DropReason::kToken, "token"},
    {DropReason::kPreferential, "preferential"},
    {DropReason::kRandomEarly, "random_early"},
    {DropReason::kQueueFull, "queue_full"},
    {DropReason::kCapability, "capability"},
    {DropReason::kBlacklist, "blacklist"},
    {DropReason::kOverload, "overload"},
};

struct CaseResult {
  std::string name;
  std::string layer;  // "core", "baselines" or "inetsim"
  std::uint64_t setup_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t pkts = 0;       // packets offered to the target link
  std::uint64_t admitted = 0;
  std::uint64_t events = 0;
  std::uint64_t late_events = 0;
  std::uint64_t allocs = 0;
  double legit_share = 0.0;
  std::string digest;
  bool ok = true;
  std::string why;
  // Workload-specific counters, emitted verbatim.
  std::map<std::string, double> counters;
  // Setup split for topology.* (ns).
  std::map<std::string, std::uint64_t> setup_parts;
};

void fail(CaseResult& r, const std::string& why) {
  r.ok = false;
  if (!r.why.empty()) r.why += "; ";
  r.why += why;
}

// ---- Tree workloads -------------------------------------------------------

struct TreeCase {
  std::string name;
  TreeScenarioConfig cfg;
  double legit_floor = 0.0;  // x the legitimate paths' fair share; 0 = none
};

TreeScenarioConfig fig5(std::uint64_t master, std::uint64_t world,
                        TimeSec duration, TimeSec measure_start) {
  TreeScenarioConfig cfg;
  cfg.scale = kTreeScale;
  cfg.duration = duration;
  cfg.measure_start = measure_start;
  cfg.measure_end = duration;
  cfg.seed = derive_seed(master, world, kSeedStreamTreeScenario);
  cfg.attack_rate = mbps(2.0);
  return cfg;
}

std::vector<TreeCase> tree_cases(const std::string& workload,
                                 std::uint64_t master) {
  std::vector<TreeCase> cases;
  if (workload == "floc_flood") {
    const struct {
      AttackType attack;
      double floor;
    } attacks[] = {{AttackType::kTcpPopulation, kFloorTcpPopulation},
                   {AttackType::kCbr, kFloorFixedRate},
                   {AttackType::kShrew, kFloorFixedRate}};
    for (std::size_t i = 0; i < std::size(attacks); ++i) {
      TreeScenarioConfig cfg =
          fig5(master, i, kFloodDuration, kFloodMeasureStart);
      cfg.scheme = DefenseScheme::kFloc;
      cfg.attack = attacks[i].attack;
      cfg.shrew_period = 0.05;
      cfg.shrew_duty = 0.25;
      cases.push_back({to_string(attacks[i].attack), cfg, attacks[i].floor});
    }
  } else if (workload == "baseline_flood") {
    // The CBR world of floc_flood (world index 1) with a baseline queue.
    for (DefenseScheme scheme : {DefenseScheme::kDropTail,
                                 DefenseScheme::kRedPd,
                                 DefenseScheme::kPushback}) {
      TreeScenarioConfig cfg = fig5(master, 1, kFloodDuration,
                                    kFloodMeasureStart);
      cfg.scheme = scheme;
      cfg.attack = AttackType::kCbr;
      cases.push_back({to_string(scheme), cfg, 0.0});
    }
  } else if (workload == "floc_churn") {
    // The bounded row of bench/ablation_state_exhaust: every per-path table
    // budgeted, overload mode, backoff release and the blacklist armed.
    TreeScenarioConfig cfg =
        fig5(master, 3, kChurnDuration, kChurnMeasureStart);
    cfg.scheme = DefenseScheme::kFloc;
    cfg.attack = AttackType::kStateExhaust;
    cfg.attack_start = 5.0;
    cfg.state_churn_per_sec = 100.0;
    cfg.state_identity_pool = 1 << 10;
    cfg.floc.origin_budget.capacity = 96;
    cfg.floc.origin_budget.policy = EvictionPolicy::kLru;
    cfg.floc.flow_budget.capacity = 48;
    cfg.floc.offense_budget.capacity = 64;
    cfg.floc.offender_budget.capacity = 64;
    cfg.floc.enable_overload_mode = true;
    cfg.floc.backoff_release = true;
    cfg.floc.enable_blacklist = true;
    cases.push_back({"state-exhaust", cfg, kFloorChurn});
  }
  return cases;
}

// What a tree case attaches before it runs: nothing, the profiler sections
// (traced run), or one observability channel (channel-cost runs).
enum class Attach { kNone, kProfile, kTracer, kJournal };

// The sections under the root "run", which the driver times itself.
std::vector<SectionSpec> tree_sections(const TreeCase& c) {
  std::vector<SectionSpec> specs = {
      {"sim.dispatch", "run", "netsim", "dispatch"}};
  if (c.cfg.scheme == DefenseScheme::kFloc) {
    specs.push_back({"link.enqueue", "sim.dispatch", "netsim"});
    specs.push_back({"link.dequeue", "sim.dispatch", "netsim"});
    specs.push_back({"floc.enqueue", "link.enqueue", "core"});
    specs.push_back({"floc.dequeue", "link.dequeue", "core"});
    specs.push_back({"floc.control", "floc.enqueue", "core"});
    specs.push_back({"floc.cap_verify", "floc.enqueue", "core"});
  } else {
    const std::string s = to_string(c.cfg.scheme);
    specs.push_back({s + ".enqueue", "sim.dispatch", "baselines"});
    specs.push_back({s + ".dequeue", "sim.dispatch", "baselines"});
  }
  return specs;
}

CaseResult run_tree_case(const TreeCase& c, Attach attach,
                         ProfileAccumulator* acc) {
  CaseResult r;
  r.name = c.name;
  const bool floc = c.cfg.scheme == DefenseScheme::kFloc;
  r.layer = floc ? "core" : "baselines";

  // Declared before the scenario, which keeps pointers to them.
  Profiler prof;
  std::unique_ptr<telemetry::Tracer> tracer;
  std::unique_ptr<telemetry::Telemetry> tel;

  const std::uint64_t t0 = clock_ns();
  TreeScenario s(c.cfg);
  r.setup_ns = clock_ns() - t0;
  r.setup_parts["topology.tree"] = r.setup_ns;

  switch (attach) {
    case Attach::kNone:
      break;
    case Attach::kProfile: {
      s.sim().set_profile_section(prof.section("sim.dispatch"));
      const std::string lp = floc ? "link" : to_string(c.cfg.scheme);
      s.target_link()->set_profiler(prof.section(lp + ".enqueue"),
                                    prof.section(lp + ".dequeue"));
      if (floc) s.floc_queue()->set_profiler(&prof, "floc");
      break;
    }
    case Attach::kTracer:
      // Ring-bounded like bench/fig06's trace export.
      tracer = std::make_unique<telemetry::Tracer>(std::size_t{1} << 15);
      s.attach_tracer(tracer.get());
      break;
    case Attach::kJournal:
      tel = std::make_unique<telemetry::Telemetry>();
      if (floc) s.floc_queue()->attach_telemetry(tel.get());
      break;
  }

  telemetry::ScopedAllocCount allocs;
  const std::uint64_t t1 = clock_ns();
  s.run();
  r.run_ns = clock_ns() - t1;
  r.allocs = allocs.allocs();

  const QueueDisc& q = s.bottleneck_queue();
  r.admitted = q.admissions();
  r.pkts = q.admissions() + q.drops();
  r.events = s.sim().events_processed();
  r.late_events = s.sim().late_events();
  const TreeScenario::ClassBandwidth cb = s.class_bandwidth();
  r.legit_share = cb.legit_legit_bps / s.scaled_target_bw();

  Digest d;
  d.add(cb.legit_legit_bps);
  d.add(cb.legit_attack_bps);
  d.add(cb.attack_bps);
  d.add(r.admitted);
  d.add(q.drops());
  d.add(r.events);
  d.add(s.target_link()->packets_sent());

  std::string why;
  if (!s.bottleneck_queue().audit(s.sim().now(), &why)) {
    fail(r, "audit: " + why);
  }
  if (r.pkts == 0 || r.events == 0) fail(r, "no traffic reached the target");
  if (!(r.legit_share >= 0.0 && r.legit_share <= 1.0)) {
    fail(r, "legit_share outside [0, 1]");
  }

  if (floc) {
    FlocQueue* fq = s.floc_queue();
    for (const DropName& dn : kFlocDrops) {
      const std::uint64_t n = fq->drops_by_reason(dn.reason);
      d.add(n);
      r.counters[std::string("drops.") + dn.name] = static_cast<double>(n);
    }
    r.counters["origins"] = fq->active_origin_path_count();
    r.counters["aggregates"] = fq->active_aggregate_count();
    r.counters["evictions"] = static_cast<double>(fq->state_evictions());
    r.counters["overload_entries"] =
        static_cast<double>(fq->overload_entries());
    if (c.legit_floor > 0.0) {
      int legit_leaves = 0;
      for (int leaf = 0; leaf < s.leaf_count(); ++leaf) {
        if (!s.leaf_is_attack(leaf)) ++legit_leaves;
      }
      const double fair = static_cast<double>(legit_leaves) / s.leaf_count();
      if (r.legit_share < c.legit_floor * fair) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "legit share %.4f below %.2f x fair %.4f",
                      r.legit_share, c.legit_floor, fair);
        fail(r, buf);
      }
    }
  }
  r.digest = d.hex();

  if (attach == Attach::kProfile && acc != nullptr) {
    acc->add_manual({"run", "", "netsim"}, 1, r.run_ns);
    acc->add(tree_sections(c), prof);
  }
  return r;
}

// ---- inet_tick ------------------------------------------------------------

// One Skitter world, built the way run_inet_experiment builds it so its rows
// can be checked against that function's.
struct InetWorld {
  std::string name;
  InetExperimentConfig cfg;
  AsGraph graph;
  SourcePlacement placement;
  TickConfig base;
  int a_hi = 0;
  int a_lo = 0;
};

InetExperimentConfig inet_config(std::uint64_t master, std::size_t index) {
  const SkitterPreset presets[kInetPresets] = {
      SkitterPreset::kFRoot, SkitterPreset::kHRoot, SkitterPreset::kJpn};
  InetExperimentConfig cfg;
  cfg.preset = presets[index % kInetPresets];
  cfg.attack_ases = kInetAttackAses;
  cfg.legit_overlap = kInetOverlap;
  cfg.scale = kInetScale;
  cfg.ticks = kInetTicks;
  cfg.seed = derive_seed(master, index, kSeedStreamInetTopology);
  return cfg;
}

std::string inet_world_name(std::uint64_t master, std::size_t index) {
  return std::string(to_string(inet_config(master, index).preset)) + "-" +
         std::to_string(index / kInetPresets);
}

std::unique_ptr<InetWorld> build_inet_world(std::uint64_t master,
                                            std::size_t index, CaseResult* r) {
  const InetExperimentConfig cfg = inet_config(master, index);
  auto w = std::make_unique<InetWorld>();
  w->name = inet_world_name(master, index);
  w->cfg = cfg;
  SkitterConfig scfg;
  scfg.preset = cfg.preset;
  scfg.as_count = std::max(300, static_cast<int>(2000 * std::sqrt(cfg.scale)));
  scfg.seed = cfg.seed;
  std::uint64_t t0 = clock_ns();
  w->graph = generate_skitter_tree(scfg);
  const std::uint64_t skitter_ns = clock_ns() - t0;

  PlacementConfig pcfg;
  pcfg.legit_sources = std::max(100, static_cast<int>(10000 * cfg.scale));
  pcfg.legit_ases = std::max(20, static_cast<int>(200 * std::sqrt(cfg.scale)));
  pcfg.attack_sources = std::max(1000, static_cast<int>(100000 * cfg.scale));
  pcfg.attack_ases =
      std::max(10, static_cast<int>(cfg.attack_ases * std::sqrt(cfg.scale)));
  pcfg.legit_overlap = cfg.legit_overlap;
  pcfg.seed = cfg.seed ^ 0xB07;
  t0 = clock_ns();
  w->placement = place_sources(w->graph, pcfg);
  const std::uint64_t placement_ns = clock_ns() - t0;

  TickConfig t;
  t.bottleneck_capacity = std::max(200, static_cast<int>(16000 * cfg.scale));
  t.internal_capacity = 4 * t.bottleneck_capacity;
  t.ticks = cfg.ticks;
  t.warmup_ticks = cfg.ticks / 3;
  t.seed = cfg.seed ^ 0x51;
  w->base = t;
  const int active_paths =
      static_cast<int>(w->placement.legit_as_ids.size() +
                       w->placement.attack_as_ids.size());
  w->a_hi = std::max(4, active_paths * 200 / 500);
  w->a_lo = std::max(2, active_paths * 100 / 500);

  if (r != nullptr) {
    r->setup_ns = skitter_ns + placement_ns;
    r->setup_parts["topology.skitter"] = skitter_ns;
    r->setup_parts["topology.placement"] = placement_ns;
  }
  return w;
}

struct PolicySpec {
  std::string label;
  std::string key;  // profiler key: nd, ff, na, agg
  TickPolicy policy;
  int guaranteed;
};

std::vector<PolicySpec> inet_policies(const InetWorld& w) {
  return {{"ND", "nd", TickPolicy::kNoDefense, 0},
          {"FF", "ff", TickPolicy::kFairPriority, 0},
          {"NA", "na", TickPolicy::kFloc, 0},
          {"A-" + std::to_string(w.a_hi), "agg", TickPolicy::kFloc, w.a_hi},
          {"A-" + std::to_string(w.a_lo), "agg", TickPolicy::kFloc, w.a_lo}};
}

bool same_results(const TickResults& a, const TickResults& b) {
  return a.legit_legit_frac == b.legit_legit_frac &&
         a.legit_attack_frac == b.legit_attack_frac &&
         a.attack_frac == b.attack_frac && a.utilization == b.utilization &&
         a.delivered_legit_legit == b.delivered_legit_legit &&
         a.delivered_legit_attack == b.delivered_legit_attack &&
         a.delivered_attack == b.delivered_attack &&
         a.dropped_internal == b.dropped_internal &&
         a.dropped_target == b.dropped_target &&
         a.aggregate_count == b.aggregate_count &&
         a.mean_legit_window == b.mean_legit_window;
}

CaseResult run_inet_case(const InetWorld& w, bool profile,
                         ProfileAccumulator* acc,
                         std::vector<InetScenarioRow>* rows_out) {
  CaseResult r;
  r.name = w.name;
  r.layer = "inetsim";
  Profiler prof;
  std::vector<InetScenarioRow> rows;
  telemetry::ScopedAllocCount allocs;
  const std::uint64_t t0 = clock_ns();
  for (const PolicySpec& p : inet_policies(w)) {
    TickConfig t = w.base;
    t.policy = p.policy;
    t.guaranteed_paths = p.guaranteed;
    TickSim sim(w.graph, w.placement, t);
    Profiler::Section* sec =
        profile ? prof.section("inetsim." + p.key) : nullptr;
    TickResults res;
    {
      telemetry::ScopedTimer timer(sec);
      res = sim.run();
    }
    rows.push_back(InetScenarioRow{p.label, res});
  }
  r.run_ns = clock_ns() - t0;
  r.allocs = allocs.allocs();

  Digest d;
  double floc_share = 0.0;
  int floc_rows = 0;
  double aggregates = 0.0;
  int agg_rows = 0;
  std::uint64_t dropped_internal = 0;
  const TickResults* nd = nullptr;
  const TickResults* na = nullptr;
  for (const InetScenarioRow& row : rows) {
    const TickResults& x = row.results;
    r.pkts += x.delivered_legit_legit + x.delivered_legit_attack +
              x.delivered_attack + x.dropped_target;
    r.admitted += x.delivered_legit_legit + x.delivered_legit_attack +
                  x.delivered_attack;
    dropped_internal += x.dropped_internal;
    d.add(x.delivered_legit_legit);
    d.add(x.delivered_legit_attack);
    d.add(x.delivered_attack);
    d.add(x.dropped_internal);
    d.add(x.dropped_target);
    d.add(x.aggregate_count);
    for (double f : {x.legit_legit_frac, x.legit_attack_frac, x.attack_frac}) {
      if (!(f >= 0.0 && f <= 1.0)) fail(r, row.label + ": fraction outside [0, 1]");
    }
    if (x.legit_legit_frac + x.legit_attack_frac + x.attack_frac > 1.0 + 1e-9) {
      fail(r, row.label + ": fractions sum past 1");
    }
    if (row.label == "ND") nd = &x;
    if (row.label == "NA") na = &x;
    if (row.label == "NA" || row.label.rfind("A-", 0) == 0) {
      floc_share += x.legit_legit_frac;
      ++floc_rows;
    }
    if (row.label.rfind("A-", 0) == 0) {
      aggregates += x.aggregate_count;
      ++agg_rows;
    }
  }
  if (nd == nullptr || na == nullptr ||
      !(na->legit_legit_frac > nd->legit_legit_frac)) {
    fail(r, "NA does not beat ND on legitimate-path share");
  }
  if (r.pkts == 0) fail(r, "no packets reached the target link");
  r.legit_share = floc_rows > 0 ? floc_share / floc_rows : 0.0;
  r.counters["dropped_internal"] = static_cast<double>(dropped_internal);
  r.counters["aggregates"] = agg_rows > 0 ? aggregates / agg_rows : 0.0;
  r.counters["ticks"] = static_cast<double>(w.base.ticks);
  r.digest = d.hex();

  if (profile && acc != nullptr) {
    acc->add_manual({"run", "", "inetsim"}, 1, r.run_ns);
    std::vector<SectionSpec> specs;
    for (const char* key : {"nd", "ff", "na", "agg"}) {
      specs.push_back({std::string("inetsim.") + key, "run", "inetsim"});
    }
    acc->add(specs, prof);
  }
  if (rows_out != nullptr) *rows_out = std::move(rows);
  return r;
}

// ---- Repetitions ----------------------------------------------------------

struct Rep {
  bool traced = false;
  Calibration calibration;  // traced repetitions only
  std::vector<CaseResult> cases;
  std::vector<SectionTotals> sections;
};

class Workload {
 public:
  Workload(std::string name, std::uint64_t seed)
      : name_(std::move(name)), seed_(seed) {
    tree_ = tree_cases(name_, seed_);
  }

  bool known() const { return !tree_.empty() || name_ == "inet_tick"; }
  bool is_inet() const { return name_ == "inet_tick"; }

  // World construction only; returns the setup split of each case.
  std::vector<CaseResult> setup_only() {
    std::vector<CaseResult> out;
    if (is_inet()) {
      for (std::size_t i = 0; i < kInetWorlds; ++i) {
        CaseResult r;
        r.name = inet_world_name(seed_, i);
        build_inet_world(seed_, i, &r);
        out.push_back(std::move(r));
      }
    } else {
      for (const TreeCase& c : tree_) {
        CaseResult r;
        r.name = c.name;
        const std::uint64_t t0 = clock_ns();
        { TreeScenario s(c.cfg); }
        r.setup_ns = clock_ns() - t0;
        r.setup_parts["topology.tree"] = r.setup_ns;
        out.push_back(std::move(r));
      }
    }
    return out;
  }

  Rep run_rep(bool traced, std::vector<std::vector<InetScenarioRow>>* rows) {
    Rep rep;
    rep.traced = traced;
    ProfileAccumulator acc;
    if (is_inet()) {
      if (rows != nullptr) rows->resize(kInetWorlds);
      for (std::size_t i = 0; i < kInetWorlds; ++i) {
        CaseResult setup;
        const auto w = build_inet_world(seed_, i, &setup);
        CaseResult r = run_inet_case(*w, traced, &acc,
                                     rows != nullptr ? &(*rows)[i] : nullptr);
        r.setup_ns = setup.setup_ns;
        r.setup_parts = setup.setup_parts;
        rep.cases.push_back(std::move(r));
      }
    } else {
      for (const TreeCase& c : tree_) {
        rep.cases.push_back(
            run_tree_case(c, traced ? Attach::kProfile : Attach::kNone, &acc));
      }
    }
    rep.sections = acc.totals();
    return rep;
  }

  // The CBR case of floc_flood with one observability channel attached.
  CaseResult run_channel(Attach attach) {
    return run_tree_case(tree_[1], attach, nullptr);
  }

  // Rows of run_inet_experiment for world `i`, for the equality check.
  std::vector<InetScenarioRow> reference_rows(std::size_t i) const {
    return run_inet_experiment(inet_config(seed_, i));
  }

 private:
  std::string name_;
  std::uint64_t seed_;
  std::vector<TreeCase> tree_;
};

// ---- Output ---------------------------------------------------------------

void write_case(json::JsonWriter& w, const CaseResult& c) {
  w.begin_object();
  w.field("name", c.name);
  w.field("layer", c.layer);
  w.field("setup_ns", c.setup_ns);
  w.field("run_ns", c.run_ns);
  w.field("pkts", c.pkts);
  w.field("admitted", c.admitted);
  w.field("events", c.events);
  w.field("late_events", c.late_events);
  w.field("allocs", c.allocs);
  w.field("legit_share", c.legit_share);
  w.field("digest", c.digest);
  w.field("ok", c.ok);
  w.field("why", c.why);
  w.key("setup_parts").begin_object();
  for (const auto& [k, v] : c.setup_parts) w.field(k, v);
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [k, v] : c.counters) w.field(k, v);
  w.end_object();
  w.end_object();
}

void write_rep(json::JsonWriter& w, const Rep& rep) {
  w.begin_object();
  w.field("traced", rep.traced);
  if (rep.traced) {
    const Calibration& cal = rep.calibration;
    w.key("calibration").begin_object();
    w.field("clock_read_ns", cal.clock_read_ns);
    for (const auto& [name, cost] : {std::pair{"scoped", cal.scoped},
                                     std::pair{"dispatch", cal.dispatch}}) {
      w.key(name).begin_object();
      w.field("inner_ns", cost.inner_ns);
      w.field("outer_ns", cost.outer_ns);
      w.end_object();
    }
    w.end_object();
  }
  w.key("cases").begin_array();
  for (const CaseResult& c : rep.cases) write_case(w, c);
  w.end_array();
  w.key("sections").begin_array();
  for (const SectionTotals& s : rep.sections) {
    w.begin_object();
    w.field("name", s.spec.name);
    w.field("parent", s.spec.parent);
    w.field("layer", s.spec.layer);
    w.field("timer", s.spec.timer);
    w.field("calls", s.calls);
    w.field("total_ns", s.total_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// Peak resident set of this process image (VmHWM, which exec resets; unlike
// ru_maxrss it does not carry the forking parent's high-water mark). 0 when
// unreadable, which run.py rejects.
std::uint64_t peak_rss_kb() {
  std::uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long v = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) kb = v;
    }
    std::fclose(f);
  }
  return kb;
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(clock_ns() - t0) / 1e9;
}

int run(const Options& o) {
  Workload wl(o.workload, o.seed);
  if (!wl.known()) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::vector<std::string> failures;  // checks across repetitions

  json::JsonWriter w;
  w.begin_object();
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("trace", o.trace);

  // Construct-only repetitions, in batches before each timed repetition so
  // they sample the host over the whole run rather than one burst of it.
  std::vector<std::vector<CaseResult>> setup_reps;

  // Timed loop. Every repetition runs the same inputs, so every case must
  // reproduce the first repetition's outcome digest exactly -- traced or
  // not: the profiler hooks must not perturb the simulation.
  std::vector<std::string> first_digest;
  std::vector<std::vector<InetScenarioRow>> first_rows;
  w.key("reps").begin_array();
  const std::uint64_t t0 = clock_ns();
  int reps = 0;
  while (true) {
    const int pairs = reps / 2;
    if (o.trace ? (pairs >= kMinTracedPairs && seconds_since(t0) >= o.seconds &&
                   reps % 2 == 0)
                : (reps >= kMinRunReps && seconds_since(t0) >= o.seconds)) {
      break;
    }
    for (int i = 0; i < kSetupRepsPerRun; ++i) {
      setup_reps.push_back(wl.setup_only());
    }
    const bool traced = o.trace && reps % 2 == 1;
    const Calibration cal = traced ? calibrate() : Calibration{};
    Rep rep = wl.run_rep(traced, reps == 0 ? &first_rows : nullptr);
    rep.calibration = cal;
    for (std::size_t i = 0; i < rep.cases.size(); ++i) {
      const CaseResult& c = rep.cases[i];
      if (reps == 0) {
        first_digest.push_back(c.digest);
      } else if (c.digest != first_digest[i]) {
        failures.push_back(c.name + ": outcome digest differs from the first" +
                           std::string(traced ? " (traced)" : "") +
                           " repetition");
      }
    }
    write_rep(w, rep);
    ++reps;
  }
  w.end_array();

  w.key("setup_reps").begin_array();
  for (const std::vector<CaseResult>& rep : setup_reps) {
    w.begin_array();
    for (const CaseResult& c : rep) write_case(w, c);
    w.end_array();
  }
  w.end_array();

  if (wl.is_inet()) {
    // One world per preset: they share the world-building code path.
    for (std::size_t i = 0; i < kInetPresets; ++i) {
      const auto ref = wl.reference_rows(i);
      const auto& got = first_rows[i];
      bool same = ref.size() == got.size();
      for (std::size_t k = 0; same && k < ref.size(); ++k) {
        same = ref[k].label == got[k].label &&
               same_results(ref[k].results, got[k].results);
      }
      if (!same) {
        failures.push_back(inet_world_name(o.seed, i) +
                           ": rows differ from run_inet_experiment");
      }
    }
  }

  if (o.trace && o.workload == "floc_flood") {
    // Observability channels on the CBR case, one at a time, alternating.
    w.key("channels").begin_object();
    std::map<std::string, std::vector<double>> ns;
    const std::pair<const char*, Attach> channels[] = {
        {"detached", Attach::kNone},
        {"tracer", Attach::kTracer},
        {"journal", Attach::kJournal}};
    for (int round = 0; round < kChannelRounds; ++round) {
      for (const auto& [name, attach] : channels) {
        const CaseResult c = wl.run_channel(attach);
        if (!c.ok) failures.push_back("cbr with the " + std::string(name) +
                                      " attached: " + c.why);
        if (c.digest != first_digest[1]) {
          failures.push_back(std::string("cbr: outcome digest changes with the ") +
                             name + " attached");
        }
        ns[name].push_back(static_cast<double>(c.run_ns));
      }
    }
    for (const auto& [name, v] : ns) {
      w.key(name).begin_array();
      for (double x : v) w.value(x);
      w.end_array();
    }
    w.end_object();
  }

  w.field("peak_rss_kb", peak_rss_kb());
  w.key("failures").begin_array();
  for (const std::string& f : failures) w.value(f);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace floc::scenbench

int main(int argc, char** argv) {
  return floc::scenbench::run(floc::scenbench::parse(argc, argv));
}
