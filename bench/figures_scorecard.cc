// Hardening scorecards on the Fig. 5 tree. Both exit 1 when a check fails.
//
// ablation_adaptive: closed-loop (detector-gaming) attackers vs their
// open-loop counterparts, with the hardening knobs (measurement-interval /
// token-period jitter, exponential-backoff release, the per-sender offender
// blacklist) off and on.
//   * hardening OFF: each adaptive strategy recovers >= 2x the attack
//     goodput of its open-loop counterpart (the adversaries actually work);
//   * hardening ON: each adaptive strategy is pulled back to <= 1.25x what
//     the *unhardened* defense conceded to the open-loop counterpart;
//   * flash crowd: legitimate goodput with hardening ON within 10% of OFF,
//     and the false-positive rate within 2 points;
//   * zero SimMonitor invariant violations anywhere.
//
// ablation_state_exhaust: identity-churn attackers vs the state budgets and
// overload mode, {no-churn, churn} x {budgets OFF, budgets ON}.
//   * pressure is real: with budgets OFF, churn grows the origin table past
//     the ON-case capacity;
//   * tables hold: with budgets ON, every probed table size stays <= its
//     budget for the whole run, churn or not;
//   * legit goodput under churn with budgets ON stays within 15% of the
//     no-churn bounded baseline;
//   * an evicted-then-resuming flood re-latches within one MTD interval
//     (the EvictionSketch restores the verdict);
//   * the eviction-storm alert fires in the bounded churn case;
//   * zero SimMonitor invariant violations anywhere.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/figure.h"
#include "faultsim/sim_monitor.h"
#include "telemetry/alerts.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/time_series.h"

namespace floc::bench {
namespace {

constexpr TimeSec kAttackStart = 5.0;

// --- ablation_adaptive -----------------------------------------------------
constexpr TimeSec kSeriesBucket = 1.0;  // attack-goodput series resolution

struct Strategy {
  const char* name;       // row group / artifact stem
  AttackType attack;
  int counterpart;        // index of the open-loop baseline row (-1 = none)
};

// Order matters: every adaptive row names its open-loop counterpart. The
// flash crowd (no attack, a legitimate arrival herd) checks that the
// hardening creates no false positives and taxes no legitimate traffic.
const Strategy kStrategies[] = {
    {"shrew", AttackType::kShrew, -1},
    {"adaptive-shrew", AttackType::kAdaptiveShrew, 0},
    {"on-off", AttackType::kOnOff, -1},
    {"duty-cycle", AttackType::kDutyCycle, 2},
    {"covert", AttackType::kCovert, -1},
    {"probing-covert", AttackType::kProbingCovert, 4},
    {"flash-crowd", AttackType::kNone, -1},
};
constexpr std::size_t kStrategyCount = std::size(kStrategies);

// Scorecard row: legitimate/attack goodput (fractions of the target link),
// detection latency (first probe after attack start that finds an
// attack-leaf path flagged), evasion half-life (time for windowed attack
// goodput to fall below half its post-start peak), false-positive rate
// (time-averaged fraction of legitimate leaf paths flagged as attack),
// backoff escalations, blacklist additions and invariant violations.
CaseOutput adaptive_case(const Strategy& strat, bool hardened,
                         std::uint64_t seed, const BenchArgs& a) {
  TreeScenarioConfig cfg = fig5_config(a);
  cfg.scheme = DefenseScheme::kFloc;
  cfg.attack = strat.attack;
  cfg.attack_rate = mbps(2.0);
  cfg.attack_start = kAttackStart;
  cfg.seed = seed;
  // Open-loop pulse parameters double as the adaptive sources' initial
  // guesses: the shrew starts with a deliberately wrong period so the
  // closed-loop search is what finds T_Si.
  cfg.shrew_period = 0.05;
  cfg.shrew_duty = 0.25;
  if (strat.attack == AttackType::kNone) {
    // Flash crowd: 2x the legitimate population arriving as a herd.
    cfg.legit_per_leaf *= 2;
    cfg.legit_start_spread = 0.5;
  }
  if (hardened) {
    cfg.floc.interval_jitter = 0.15;
    cfg.floc.backoff_release = true;
    cfg.floc.backoff_decay = 10.0;
    cfg.floc.enable_blacklist = true;
    cfg.floc.jitter_dip_prob = 0.4;
  }
  TreeScenario s(cfg);
  FlocQueue* fq = s.floc_queue();
  Simulator& sim = s.sim();

  telemetry::Telemetry tel;
  tel.journal.set_enabled(telemetry::EventKind::kDrop, false);
  fq->attach_telemetry(&tel);
  s.target_link()->register_metrics(tel.registry, "link.target");
  sim.register_metrics(tel.registry);
  tel.registry.gauge_fn("legit.bytes_delivered", [&s] {
    return s.monitor().class_cumulative_bytes([](const FlowLabel& l) {
      return l.cls == FlowClass::kLegitimate;
    });
  });
  tel.registry.gauge_fn("attack.bytes_delivered", [&s] {
    return s.monitor().class_cumulative_bytes(
        [](const FlowLabel& l) { return l.cls == FlowClass::kAttack; });
  });
  telemetry::TimeSeriesSampler sampler(&tel.registry,
                                       cfg.floc.control_interval);
  sampler.attach(&sim, cfg.duration);

  const std::string stem = std::string("ablation_adaptive_") + strat.name +
                           (hardened ? "_on" : "_off");

  // Flight recorder: invariant violations and the never-detected gate
  // freeze the full FlocQueue decision state for post-mortem inspection.
  telemetry::FlightRecorder recorder(&tel.registry);
  recorder.set_journal(&tel.journal);
  recorder.set_bench(stem);
  recorder.add_queue("floc-bottleneck", fq);

  SimMonitor mon;
  mon.set_journal(&tel.journal);
  mon.set_flight_recorder(&recorder);
  mon.watch_queue("floc-bottleneck", fq);
  mon.attach(&sim, 0.5, cfg.duration);

  // Cumulative attack-delivery series for the evasion half-life.
  std::vector<double> attack_bytes;
  for (TimeSec t = 0.0; t <= cfg.duration; t += kSeriesBucket) {
    sim.schedule_at(t, [&s, &attack_bytes] {
      attack_bytes.push_back(s.monitor().class_cumulative_bytes(
          [](const FlowLabel& l) { return l.cls == FlowClass::kAttack; }));
    });
  }

  // Leaf-path probes. Latch journal entries carry *aggregate* keys, which
  // need not match any leaf path once aggregation has merged origins, so
  // attribution goes through FlocQueue::is_attack_path on the origin paths
  // (legitimate leaves collaterally merged into attack aggregates count as
  // false positives).
  std::vector<PathId> attack_paths;
  std::vector<PathId> legit_paths;
  for (int leaf = 0; leaf < s.leaf_count(); ++leaf) {
    (s.leaf_is_attack(leaf) ? attack_paths : legit_paths)
        .push_back(s.leaf_path(leaf));
  }
  double first_detect = -1.0;
  std::uint64_t fp_hits = 0;
  std::uint64_t fp_probes = 0;
  constexpr TimeSec kProbeStep = 0.25;
  for (TimeSec t = kProbeStep; t < cfg.duration; t += kProbeStep) {
    sim.schedule_at(t, [&, t] {
      if (first_detect < 0.0 && t >= cfg.attack_start) {
        for (const PathId& path : attack_paths) {
          if (fq->is_attack_path(path)) {
            first_detect = t;
            break;
          }
        }
      }
      for (const PathId& path : legit_paths) {
        ++fp_probes;
        if (fq->is_attack_path(path)) ++fp_hits;
      }
      recorder.sample(sim.now());
    });
  }

  s.run();

  const LinkShares l = link_shares(s);
  double detect = std::nan("");
  if (first_detect >= 0.0) detect = first_detect - cfg.attack_start;
  const double fp_rate =
      fp_probes > 0
          ? static_cast<double>(fp_hits) / static_cast<double>(fp_probes)
          : 0.0;

  // In-case gate capture: an attack the defense never flagged is the
  // failure worth a post-mortem bundle here.
  if (strat.attack != AttackType::kNone && std::isnan(detect)) {
    telemetry::IncidentTrigger trig;
    trig.source = telemetry::IncidentTrigger::Source::kGate;
    trig.time = cfg.duration;
    trig.name = "attack_never_detected";
    trig.detail = std::string("strategy=") + strat.name +
                  " hardened=" + (hardened ? "on" : "off");
    recorder.capture(trig);
  }

  // Evasion half-life: windowed attack goodput, peak after attack start,
  // first window at/below half the peak afterwards.
  double half_life = std::nan("");
  if (strat.attack != AttackType::kNone && attack_bytes.size() > 2) {
    double peak = 0.0;
    std::size_t peak_i = 0;
    const auto start_i =
        static_cast<std::size_t>(cfg.attack_start / kSeriesBucket) + 1;
    for (std::size_t i = start_i; i < attack_bytes.size(); ++i) {
      const double rate = attack_bytes[i] - attack_bytes[i - 1];
      if (rate > peak) {
        peak = rate;
        peak_i = i;
      }
    }
    for (std::size_t i = peak_i + 1; peak > 0.0 && i < attack_bytes.size();
         ++i) {
      if (attack_bytes[i] - attack_bytes[i - 1] <= 0.5 * peak) {
        half_life = static_cast<double>(i - peak_i) * kSeriesBucket;
        break;
      }
    }
  }

  CaseOutput out;
  out.rows.push_back(
      {hardened ? "on" : "off",
       {l.legit, l.attack, detect, half_life, fp_rate,
        static_cast<double>(
            tel.journal.count(telemetry::EventKind::kBackoffEscalate)),
        static_cast<double>(
            tel.journal.count(telemetry::EventKind::kBlacklistAdd)),
        static_cast<double>(mon.violations().size())},
       strat.name});

  // Artifacts: telemetry series + defense-event journal + incidents.
  std::string err;
  sampler.add_rate_column("legit.bytes_delivered");
  sampler.add_rate_column("attack.bytes_delivered");
  out.artifacts = {stem + ".csv", stem + ".journal.json",
                   stem + ".incident.json"};
  const char* who = "ablation_adaptive";
  warn_unless(sampler.save(out.artifacts[0], &err), who, err);
  warn_unless(tel.journal.save(out.artifacts[1], &err), who, err);
  warn_unless(recorder.save(out.artifacts[2], &err), who, err);
  out.metrics_stem = stem;
  out.metrics = snapshot(tel.registry);
  return out;
}

int adaptive_summary(const std::vector<Row>& rows,
                     std::vector<std::string>* artifacts) {
  const auto at = [&](std::size_t strategy, bool hardened) -> const Row& {
    return rows[strategy * 2 + (hardened ? 1 : 0)];
  };
  std::printf("\n");
  bool evasion_works = true;      // adaptive >= 2x open-loop, hardening off
  bool confinement_works = true;  // hardened adaptive <= 1.25x open-loop base
  for (std::size_t i = 0; i < kStrategyCount; ++i) {
    if (kStrategies[i].counterpart < 0) continue;
    const auto base = static_cast<std::size_t>(kStrategies[i].counterpart);
    const double open_off = at(base, false)["attack"];
    const double adap_off = at(i, false)["attack"];
    const double adap_on = at(i, true)["attack"];
    const bool evades = adap_off >= 2.0 * open_off;
    // The hardened adaptive attacker must do no better than what the
    // *unhardened* defense already conceded to its open-loop counterpart —
    // i.e. the hardening strips the whole adaptivity advantage. Absolute
    // floor of 1% of the link so near-zero pairs cannot fail on noise.
    const bool confined = adap_on <= 1.25 * open_off + 0.01;
    std::printf("%-15s evasion x%.2f (off) %s   confinement x%.2f (on) %s\n",
                kStrategies[i].name,
                open_off > 0.0 ? adap_off / open_off : 0.0,
                evades ? "OK" : "FAIL",
                open_off > 0.0 ? adap_on / open_off : 0.0,
                confined ? "OK" : "FAIL");
    evasion_works = evasion_works && evades;
    confinement_works = confinement_works && confined;
  }
  const Row& flash_off = at(kStrategyCount - 1, false);
  const Row& flash_on = at(kStrategyCount - 1, true);
  const bool flash_ok =
      flash_off["legit"] > 0.0 &&
      std::abs(flash_on["legit"] - flash_off["legit"]) <=
          0.10 * flash_off["legit"] &&
      flash_on["fp"] <= flash_off["fp"] + 0.02;
  std::printf("flash-crowd     legit on/off %.3f/%.3f fp %.4f/%.4f %s\n",
              flash_on["legit"], flash_off["legit"], flash_on["fp"],
              flash_off["fp"], flash_ok ? "OK" : "FAIL");

  // Summary CSV; -1 marks a detection or half-life that never happened.
  const auto raw = [](double v) { return std::isnan(v) ? -1.0 : v; };
  std::string csv =
      "strategy,hardened,legit_frac,attack_frac,detect_latency_s,"
      "half_life_s,fp_rate,escalations,blacklists,violations\n";
  double violations = 0.0;
  for (const Row& r : rows) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s,%d,%.6f,%.6f,%.3f,%.3f,%.6f,%.0f,%.0f,%.0f\n",
                  r.group.c_str(), r.label == "on" ? 1 : 0, r["legit"],
                  r["attack"], raw(r["detect"]), raw(r["halflife"]), r["fp"],
                  r["escal"], r["blist"], r["violations"]);
    csv += buf;
    violations += r["violations"];
  }
  std::printf("invariant violations: %.0f\n", violations);
  std::string err;
  warn_unless(telemetry::write_text_file("ablation_adaptive.csv", csv, &err),
              "ablation_adaptive", err);
  artifacts->push_back("ablation_adaptive.csv");
  return (evasion_works && confinement_works && flash_ok && violations == 0.0)
             ? 0
             : 1;
}

// --- ablation_state_exhaust ------------------------------------------------
// Budgets for the bounded rows. Generous enough for the legitimate Fig. 5
// population (27 leaf paths, ~30 flows/leaf at scale 1), tight enough that
// a churn attack must trip eviction and overload.
constexpr std::size_t kOriginBudget = 96;
constexpr std::size_t kFlowBudget = 48;
constexpr std::size_t kOffenseBudget = 64;
constexpr std::size_t kOffenderBudget = 64;

// "ON" arms per-table capacities (origin/flow/offense/offender), the
// overload high-watermark machinery, and backoff-release + blacklist so
// every bounded table is live. Scheduled probes record the maximum size of
// every defense table across the run (an RSS proxy: these maps ARE the
// defense's per-path/per-flow/per-sender memory). An AlertEngine watches
// eviction and occupancy rates in the netdata packets-storm shape; firings
// export as .alerts.json and the registry as a Prometheus .prom scrape.
CaseOutput state_case(bool churn, bool bounded, std::uint64_t seed,
                      const BenchArgs& a) {
  TreeScenarioConfig cfg = fig5_config(a);
  cfg.scheme = DefenseScheme::kFloc;
  cfg.attack = churn ? AttackType::kStateExhaust : AttackType::kNone;
  cfg.attack_start = kAttackStart;
  cfg.state_churn_per_sec = 100.0;
  cfg.state_identity_pool = 1 << 10;
  cfg.seed = seed;
  if (bounded) {
    cfg.floc.origin_budget.capacity = kOriginBudget;
    cfg.floc.origin_budget.policy = EvictionPolicy::kLru;
    cfg.floc.flow_budget.capacity = kFlowBudget;
    cfg.floc.offense_budget.capacity = kOffenseBudget;
    cfg.floc.offender_budget.capacity = kOffenderBudget;
    cfg.floc.enable_overload_mode = true;
    cfg.floc.backoff_release = true;
    cfg.floc.enable_blacklist = true;
  }
  TreeScenario s(cfg);
  FlocQueue* fq = s.floc_queue();
  Simulator& sim = s.sim();

  telemetry::Telemetry tel;
  tel.journal.set_enabled(telemetry::EventKind::kDrop, false);
  fq->attach_telemetry(&tel);
  s.target_link()->register_metrics(tel.registry, "link.target");

  // Storm alerting on the simulation clock, so firings are deterministic
  // and --jobs-invariant.
  telemetry::AlertEngine alerts(&tel.registry);
  {
    telemetry::AlertRule r;
    r.name = "state_evict_storm";
    r.metric = "floc.state.evictions";
    r.short_window = 2.0;
    r.long_window = 10.0;
    r.ratio = 3.0;
    r.clear_ratio = 1.5;
    r.min_rate = 5.0;
    alerts.add_rule(r);
    telemetry::AlertRule o;
    o.name = "state_pressure";
    o.metric = "floc.state.occupancy";
    o.kind = telemetry::AlertKind::kThreshold;
    o.threshold = 0.9;
    o.clear_threshold = 0.7;
    alerts.add_rule(o);
  }

  const std::string stem = std::string("ablation_state_exhaust_") +
                           (churn ? "churn" : "baseline") +
                           (bounded ? "_on" : "_off");

  // Flight recorder: alert fires and invariant violations freeze a bundle
  // with the full FlocQueue decision state (budget occupancy included).
  telemetry::FlightRecorder recorder(&tel.registry);
  recorder.set_journal(&tel.journal);
  recorder.set_bench(stem);
  recorder.add_queue("floc-bottleneck", fq);
  alerts.set_flight_recorder(&recorder);

  SimMonitor mon;
  mon.set_journal(&tel.journal);
  mon.set_flight_recorder(&recorder);
  mon.watch_queue("floc-bottleneck", fq);
  mon.attach(&sim, 0.5, cfg.duration);

  // Table-size probes: the gate is "under budget at EVERY probe", not just
  // at the end, so sample on the control cadence.
  std::size_t origins_max = 0, flows_max = 0, offense_max = 0,
              offenders_max = 0;
  constexpr TimeSec kProbeStep = 0.25;
  for (TimeSec t = kProbeStep; t < cfg.duration; t += kProbeStep) {
    sim.schedule_at(t, [&, fq] {
      origins_max = std::max(
          origins_max, static_cast<std::size_t>(fq->active_origin_path_count()));
      flows_max = std::max(flows_max, fq->max_path_flow_count());
      offense_max = std::max(offense_max, fq->offense_size());
      offenders_max = std::max(offenders_max, fq->offender_size());
      recorder.sample(sim.now());
      alerts.sample(sim.now());
    });
  }

  s.run();

  std::uint64_t identities = 0;
  for (const auto& src : s.state_exhaust_sources()) {
    identities += src->identities_used();
  }

  // In-case gate capture: a bounded table past its budget is THE failure
  // this scorecard exists to catch — freeze the full queue state for it.
  if (bounded &&
      (origins_max > kOriginBudget || flows_max > kFlowBudget ||
       offense_max > kOffenseBudget || offenders_max > kOffenderBudget)) {
    telemetry::IncidentTrigger trig;
    trig.source = telemetry::IncidentTrigger::Source::kGate;
    trig.time = cfg.duration;
    trig.name = "bounded_table_over_budget";
    trig.detail = "a bounded defense table exceeded its capacity budget";
    trig.observed = static_cast<double>(origins_max);
    recorder.capture(trig);
  }

  CaseOutput out;
  out.rows.push_back(
      {bounded ? "on" : "off",
       {link_shares(s).legit, static_cast<double>(origins_max), static_cast<double>(flows_max),
        static_cast<double>(offense_max), static_cast<double>(offenders_max),
        static_cast<double>(fq->state_evictions()),
        static_cast<double>(fq->overload_entries()),
        static_cast<double>(alerts.fired("state_evict_storm")),
        static_cast<double>(mon.violations().size()),
        static_cast<double>(identities)},
       churn ? "churn" : "baseline"});

  // Artifacts: journal, alert history, Prometheus scrape, incidents.
  std::string err;
  out.artifacts = {stem + ".journal.json", stem + ".alerts.json",
                   stem + ".prom", stem + ".incident.json"};
  const char* who = "ablation_state_exhaust";
  warn_unless(tel.journal.save(out.artifacts[0], &err), who, err);
  warn_unless(alerts.save(out.artifacts[1], &err), who, err);
  warn_unless(telemetry::write_text_file(
                  out.artifacts[2], alerts.render_prometheus_with_alerts(), &err),
              who, err);
  warn_unless(recorder.save(out.artifacts[3], &err), who, err);
  out.metrics_stem = stem;
  out.metrics = snapshot(tel.registry);
  return out;
}

// Scripted re-latch micro-case, directly against a FlocQueue: latch a flood
// path, evict it via LRU identity churn while the flood is quiet, resume,
// and measure the time to re-latch. Returns the latency in control
// intervals (negative if it never re-latched or never evicted).
double relatch_intervals() {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 60;
  cfg.control_interval = 0.05;
  cfg.default_rtt = 0.05;
  cfg.enable_aggregation = false;
  cfg.origin_budget.capacity = 8;
  cfg.origin_budget.policy = EvictionPolicy::kLru;
  FlocQueue q(cfg);

  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});
  const double dt = 1.0 / 2500.0;
  double next_service = 0.0;
  auto step = [&](double t, bool flood) {
    if (flood) {
      Packet p;
      p.flow = 100;
      p.src = 2;
      p.dst = 99;
      p.path = bad;
      p.type = PacketType::kData;
      q.enqueue(std::move(p), t);
    }
    Packet g;
    g.flow = 1;
    g.src = 1;
    g.dst = 99;
    g.path = good;
    g.type = PacketType::kData;
    q.enqueue(std::move(g), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  };
  double t = 0.0;
  for (; t < 2.0; t += dt) step(t, true);  // latch the flood
  if (!q.is_attack_path(bad)) return -1.0;
  for (int i = 0; q.is_attack_path(bad) && i < 2500; ++i, t += dt) {
    Packet c;  // identity churn evicts the now-quiet latched origin
    c.flow = 300 + i % 32;
    c.src = 4;
    c.dst = 99;
    c.path = PathId::of({4, 100u + static_cast<unsigned>(i)});
    c.type = PacketType::kSyn;
    c.size_bytes = 40;
    q.enqueue(std::move(c), t);
    step(t, false);
  }
  if (q.is_attack_path(bad) || q.evicted_origins() == 0) return -1.0;
  const double resume = t + 0.2;
  next_service = resume;
  for (int i = 0; i < 2500; ++i) {
    const double tt = resume + i * dt;
    step(tt, true);
    if (q.is_attack_path(bad)) {
      return (tt - resume) / cfg.control_interval;
    }
  }
  return -1.0;
}

int state_summary(const std::vector<Row>& rows,
                  std::vector<std::string>* artifacts) {
  const Row& base_on = rows[1];    // no churn, bounded
  const Row& churn_off = rows[2];  // churn, unbounded
  const Row& churn_on = rows[3];   // churn, bounded
  const auto under = [](const Row& r, const char* table, std::size_t budget) {
    return r[table] <= static_cast<double>(budget);
  };
  const bool pressure_real = !under(churn_off, "origins", kOriginBudget);
  const bool tables_hold =
      under(base_on, "origins", kOriginBudget) &&
      under(churn_on, "origins", kOriginBudget) &&
      under(base_on, "flows", kFlowBudget) &&
      under(churn_on, "flows", kFlowBudget) &&
      under(churn_on, "offense", kOffenseBudget) &&
      under(churn_on, "offndr", kOffenderBudget);
  const bool legit_holds = base_on["legit"] > 0.0 &&
                           churn_on["legit"] >= 0.85 * base_on["legit"];
  const double relatch = relatch_intervals();
  // One full measured interval, plus the partial interval before the first
  // control boundary after the flood resumes.
  const bool relatch_ok = relatch >= 0.0 && relatch <= 2.0;
  const bool storm_alerted = churn_on["storms"] > 0.0;

  std::printf("\npressure   origins unbounded-max %.0f vs budget %zu %s\n",
              churn_off["origins"], kOriginBudget,
              pressure_real ? "OK" : "FAIL");
  std::printf("budgets    every bounded table under budget all run %s\n",
              tables_hold ? "OK" : "FAIL");
  std::printf("legit      churn/no-churn %.3f/%.3f (>= 0.85x) %s\n",
              churn_on["legit"], base_on["legit"],
              legit_holds ? "OK" : "FAIL");
  std::printf("re-latch   %.2f control intervals (<= 2) %s\n", relatch,
              relatch_ok ? "OK" : "FAIL");
  std::printf("alerting   evict-storm fires (bounded churn) %.0f %s\n",
              churn_on["storms"], storm_alerted ? "OK" : "FAIL");

  std::string csv =
      "attack,bounded,legit_frac,origins_max,flows_max,offense_max,"
      "offenders_max,evictions,overload_entries,identities,storm_fires,"
      "violations\n";
  double violations = 0.0;
  for (const Row& r : rows) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s,%d,%.6f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f\n",
                  r.group.c_str(), r.label == "on" ? 1 : 0, r["legit"],
                  r["origins"], r["flows"], r["offense"], r["offndr"],
                  r["evicted"], r["overload"], r["identities"], r["storms"],
                  r["violations"]);
    csv += buf;
    violations += r["violations"];
  }
  std::printf("invariant violations: %.0f\n", violations);
  std::string err;
  warn_unless(
      telemetry::write_text_file("ablation_state_exhaust.csv", csv, &err),
      "ablation_state_exhaust", err);
  artifacts->push_back("ablation_state_exhaust.csv");
  return (pressure_real && tables_hold && legit_holds && relatch_ok &&
          storm_alerted && violations == 0.0)
             ? 0
             : 1;
}

}  // namespace

Figure ablation_adaptive() {
  return {
      "ablation_adaptive",
      "Adaptive adversaries vs defense hardening",
      "closed-loop attackers beat the static defense (>=2x the goodput of "
      "their open-loop counterparts); interval jitter + backoff release + "
      "the offender blacklist confine them back to within 25% of the "
      "open-loop baseline without taxing flash-crowd traffic",
      "hard",
      {{"legit", "%7.3f"}, {"attack", "%8.4f"}, {"detect", "%7.2fs"},
       {"halflife", "%7.0fs"}, {"fp", "%7.4f"}, {"escal", "%6.0f"},
       {"blist", "%7.0f"}, {"violations", "%10.0f"}},
      [](const BenchArgs& a) {
        // Grid: strategy-major, hardening-minor; both hardening settings of
        // a strategy share its traffic seed.
        std::vector<Case> cases;
        for (std::size_t i = 0; i < kStrategyCount; ++i) {
          const std::uint64_t seed = a.run_seed(i, kSeedStreamTreeScenario);
          for (bool hardened : {false, true}) {
            cases.push_back({std::string(kStrategies[i].name) +
                                 (hardened ? "/on" : "/off"),
                             seed, [=] {
                               return adaptive_case(kStrategies[i], hardened,
                                                    seed, a);
                             }});
          }
        }
        return cases;
      },
      nullptr,
      adaptive_summary,
  };
}

Figure ablation_state_exhaust() {
  return {
      "ablation_state_exhaust",
      "State exhaustion vs bounded tables + overload mode",
      "identity churn exhausts an unbounded defense's per-path/per-flow/"
      "per-sender state; capacity budgets with deterministic eviction, the "
      "eviction sketch, and overload-mode degradation keep every table "
      "under budget while legitimate goodput stays within 15% of the "
      "no-churn baseline",
      "bounded",
      {{"legit", "%7.3f"}, {"origins", "%8.0f"}, {"flows", "%7.0f"},
       {"offense", "%7.0f"}, {"offndr", "%7.0f"}, {"evicted", "%9.0f"},
       {"overload", "%8.0f"}, {"storms", "%7.0f"}, {"violations", "%10.0f"},
       {"identities", nullptr}},
      [](const BenchArgs& a) {
        // Grid: attack-major, bounding-minor; both bounding settings of an
        // attack share its traffic seed.
        std::vector<Case> cases;
        for (bool churn : {false, true}) {
          const std::uint64_t seed =
              a.run_seed(churn ? 1 : 0, kSeedStreamTreeScenario);
          for (bool bounded : {false, true}) {
            cases.push_back(
                {std::string(churn ? "churn" : "baseline") +
                     (bounded ? "/on" : "/off"),
                 seed, [=] { return state_case(churn, bounded, seed, a); }});
          }
        }
        return cases;
      },
      nullptr,
      state_summary,
  };
}

}  // namespace floc::bench
