// Ablations on the Fig. 5 tree: which FLoc mechanism buys what, timed
// (on-off / rolling) attacks, and dependability under churn (router reboot,
// capability-key rotation, link flap).
#include <cstdio>
#include <vector>

#include "bench/figure.h"
#include "faultsim/fault_plan.h"
#include "faultsim/sim_monitor.h"
#include "telemetry/telemetry.h"
#include "telemetry/time_series.h"

namespace floc::bench {
namespace {

// --- ablation_churn --------------------------------------------------------
enum class FaultKind { kReboot, kKeyRotation, kLinkFlap };

const char* to_string(FaultKind f) {
  switch (f) {
    case FaultKind::kReboot: return "reboot";
    case FaultKind::kKeyRotation: return "key-rotation";
    case FaultKind::kLinkFlap: return "link-flap";
  }
  return "?";
}

constexpr TimeSec kFaultTime = 24.0;
constexpr TimeSec kWindow = 6.0;        // pre/during/after goodput windows
constexpr TimeSec kFlapOutage = 0.75;   // link down time for kLinkFlap

// Periodically checks whether every attack-leaf path is attack-flagged
// again; records the first time that happens after a state wipe.
struct RelatchProbe {
  Simulator* sim;
  FlocQueue* fq;
  const std::vector<PathId>* paths;
  TimeSec period;
  TimeSec until;
  double* relatch_time;  // -1 until re-latched

  void operator()() const {
    if (*relatch_time < 0.0) {
      bool all = true;
      for (const PathId& p : *paths) {
        if (!fq->is_attack_path(p)) {
          all = false;
          break;
        }
      }
      if (all) {
        *relatch_time = sim->now();
        return;
      }
    }
    if (sim->now() + period <= until) sim->schedule_in(period, *this);
  }
};

// Legitimate goodput before / during / after a mid-attack fault. Every
// FLoc case also samples the full metric registry once per control
// interval into ablation_churn_<fault>.csv (mode, per-reason drops,
// goodput, link/simulator gauges) and dumps the defense-event journal.
CaseOutput churn_case(DefenseScheme scheme, FaultKind fault,
                      std::uint64_t seed, const BenchArgs& a) {
  TreeScenarioConfig cfg = fig5_config(a);
  cfg.scheme = scheme;
  cfg.attack = AttackType::kCbr;
  cfg.attack_rate = mbps(2.0);
  cfg.attack_start = 5.0;
  cfg.duration = kFaultTime + 2.0 * kWindow + 2.0;
  cfg.measure_start = kFaultTime - kWindow;
  cfg.measure_end = cfg.duration;
  cfg.seed = seed;
  TreeScenario s(cfg);

  FlocQueue* fq = s.floc_queue();
  Simulator& sim = s.sim();

  // kDrop events are counted but not stored (a flood records millions).
  telemetry::Telemetry tel;
  tel.journal.set_enabled(telemetry::EventKind::kDrop, false);
  if (fq != nullptr) fq->attach_telemetry(&tel);
  s.target_link()->register_metrics(tel.registry, "link.target");
  sim.register_metrics(tel.registry);
  tel.registry.gauge_fn("legit.bytes_delivered", [&s] {
    return s.monitor().class_cumulative_bytes([](const FlowLabel& l) {
      return l.cls == FlowClass::kLegitimate;
    });
  });
  telemetry::TimeSeriesSampler sampler(&tel.registry,
                                       cfg.floc.control_interval);
  sampler.attach(&sim, cfg.duration);

  // Goodput windows as monitor snapshots.
  for (int i = 0; i <= 3; ++i) {
    const TimeSec t = kFaultTime + (i - 1) * kWindow;
    sim.schedule_at(t, [&s, i] {
      s.monitor().snapshot("w" + std::to_string(i), s.sim().now());
    });
  }

  FaultPlan plan(derive_seed(cfg.seed, 0, kSeedStreamFaultPlan));
  plan.set_journal(&tel.journal);
  switch (fault) {
    case FaultKind::kReboot:
      if (fq != nullptr) plan.add_reboot(fq, kFaultTime);
      break;
    case FaultKind::kKeyRotation:
      if (fq != nullptr)
        plan.add_key_rotation(fq, kFaultTime, 0x5EC2E7B007ED5EC2ULL);
      break;
    case FaultKind::kLinkFlap:
      plan.add_link_flap(s.target_link(), kFaultTime, kFaultTime + kFlapOutage);
      break;
  }
  plan.install(&sim);

  SimMonitor mon;
  mon.set_journal(&tel.journal);
  if (fq != nullptr) mon.watch_queue("floc-bottleneck", fq);
  mon.attach(&sim, 0.5, cfg.duration);

  // Attack-path re-latch probe (meaningful after the reboot wipes flags).
  std::vector<PathId> attack_paths;
  for (int leaf = 0; leaf < s.leaf_count(); ++leaf) {
    if (s.leaf_is_attack(leaf)) attack_paths.push_back(s.leaf_path(leaf));
  }
  double relatch_time = -1.0;
  if (fq != nullptr && fault == FaultKind::kReboot) {
    sim.schedule_at(kFaultTime,
                    RelatchProbe{&sim, fq, &attack_paths,
                                 cfg.floc.control_interval, cfg.duration,
                                 &relatch_time});
  }

  s.run();

  const auto legit = [](const FlowLabel& l) {
    return l.cls == FlowClass::kLegitimate;
  };
  const double link = s.scaled_target_bw();
  const double pre = s.monitor().class_bps(legit, "w0", "w1") / link;
  const double after = s.monitor().class_bps(legit, "w2", "w3") / link;
  double relatch = std::nan("");
  if (relatch_time >= 0.0) {
    relatch = static_cast<int>(
        (relatch_time - kFaultTime) / cfg.floc.control_interval + 0.5);
  }
  CaseOutput out;
  out.rows.push_back(
      {to_string(fault),
       {pre, s.monitor().class_bps(legit, "w1", "w2") / link, after,
        pre > 0.0 ? after / pre : 0.0, relatch,
        static_cast<double>(fq != nullptr ? fq->cap_reissues() : 0),
        static_cast<double>(
            tel.journal.count(telemetry::EventKind::kModeTransition)),
        static_cast<double>(mon.violations().size())},
       floc::to_string(scheme)});

  if (fq != nullptr) {
    const std::string stem = std::string("ablation_churn_") + to_string(fault);
    std::string err;
    sampler.add_rate_column("legit.bytes_delivered");
    out.artifacts = {stem + ".csv", stem + ".journal.json"};
    warn_unless(sampler.save(out.artifacts[0], &err), "ablation_churn", err);
    warn_unless(tel.journal.save(out.artifacts[1], &err), "ablation_churn",
                err);
  }
  out.metrics_stem = std::string("ablation_churn_") +
                     floc::to_string(scheme) + "_" + to_string(fault);
  out.metrics = snapshot(tel.registry);
  return out;
}

}  // namespace

// Runs the Fig. 5 CBR-flood scenario with individual mechanisms disabled
// (DESIGN.md section 6).
Figure ablation_floc() {
  return {
      "ablation_floc",
      "Ablation - contribution of each FLoc mechanism (CBR flood)",
      "disabling preferential drops hurts legit flows inside attack "
      "paths; the scalable filter should track the exact design",
      "variant",
      {{"legit/legitP", "%12.3f"}, {"legit/attackP", "%12.3f"},
       {"attack", "%12.3f"}, {"legitA kbps/f", "%13.0f"},
       {"atk kbps/f", "%13.0f"}},
      [](const BenchArgs& a) {
        using Tweak = void (*)(TreeScenarioConfig&);
        const std::pair<const char*, Tweak> variants[] = {
            {"full", [](TreeScenarioConfig&) {}},
            // Eq. IV.5 off: attack flows inside attack paths are not
            // individually penalized (collateral damage expected).
            {"no-preferential",
             [](TreeScenarioConfig& c) {
               c.floc.enable_preferential_drop = false;
             }},
            {"no-aggregation",
             [](TreeScenarioConfig& c) { c.floc.enable_aggregation = false; }},
            // Per-flow exact MTD replaced by the bloom drop filter
            // (Section V-B): results should track "full".
            {"scalable-filter",
             [](TreeScenarioConfig& c) {
               c.floc.use_scalable_filter = true;
               c.floc.filter.bits = 16;
             }},
            {"flow-estimation",
             [](TreeScenarioConfig& c) { c.floc.estimate_flow_count = true; }},
            {"fully-scalable",
             [](TreeScenarioConfig& c) {
               c.floc.use_scalable_filter = true;
               c.floc.filter.bits = 16;
               c.floc.estimate_flow_count = true;
             }},
            {"no-capabilities",
             [](TreeScenarioConfig& c) { c.floc.enable_capabilities = false; }},
            // N instead of N' (Eq. IV.3 ablated).
            {"base-bucket-only",
             [](TreeScenarioConfig& c) { c.floc.force_base_bucket = true; }},
            // Use the raw over-estimated path RTT.
            {"no-rtt-damping",
             [](TreeScenarioConfig& c) { c.floc.rtt_damping = 1.0; }},
        };
        // Every variant sees the same derived traffic seed: the ablation
        // isolates the mechanism, not the draw.
        const std::uint64_t seed = a.run_seed(0, kSeedStreamTreeScenario);
        std::vector<Case> cases;
        for (const auto& [name, tweak_fn] : variants) {
          const std::string label = name;
          const Tweak tweak = tweak_fn;
          cases.push_back({label, seed, [=] {
                             const auto s =
                                 run_fig5(a, seed, [&](TreeScenarioConfig& cfg) {
                                   cfg.scheme = DefenseScheme::kFloc;
                                   cfg.attack = AttackType::kCbr;
                                   cfg.attack_rate = mbps(2.0);
                                   cfg.floc.s_max = 25;
                                   tweak(cfg);
                                 });
                             const LinkShares l = link_shares(*s);
                             const auto& mon = s->monitor();
                             return CaseOutput{
                                 {{label,
                                   {l.legit_legit, l.legit_attack, l.attack,
                                    mon.bandwidth_cdf(
                                           FlowMonitor::is_legit_on_attack_path,
                                           "start", "end")
                                            .mean() / 1e3,
                                    mon.bandwidth_cdf(FlowMonitor::is_attack,
                                                      "start", "end")
                                            .mean() / 1e3}}}};
                           }});
        }
        return cases;
      },
      "(first three columns: fractions of the link; last two: mean per-flow "
      "kbps of legit-in-attack-path vs attack flows)",
  };
}

// Section II: on-off and rolling strategies designed to evade
// filter-installing defenses. FLoc's per-interval token-bucket control
// re-converges each control interval, so neither helps the attacker;
// Pushback's rate throttles chase the previous phase/location.
Figure ablation_timed_attacks() {
  return {
      "ablation_timed_attacks",
      "Timed attacks - on-off and rolling strategies vs steady CBR",
      "FLoc holds its guarantees under strength/location changes; "
      "filter-based defenses (Pushback) chase the previous phase",
      "attack",
      {{"legit/legitP", "%14.3f"}, {"legit/attackP", "%14.3f"},
       {"attack", "%12.3f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (DefenseScheme scheme :
             {DefenseScheme::kFloc, DefenseScheme::kPushback}) {
          for (AttackType attack : {AttackType::kCbr, AttackType::kOnOff,
                                    AttackType::kRolling}) {
            const std::uint64_t seed = a.run_seed(i++, kSeedStreamTreeScenario);
            cases.push_back(
                {std::string(to_string(scheme)) + "/" + to_string(attack),
                 seed, [=] {
                   const LinkShares l = link_shares(
                       *run_fig5(a, seed, [&](TreeScenarioConfig& cfg) {
                         cfg.scheme = scheme;
                         cfg.attack = attack;
                         // Peak rate scaled so the time-average matches a
                         // steady 2 Mbps/bot flood.
                         if (attack == AttackType::kOnOff) {
                           cfg.onoff_on = 4.0;
                           cfg.onoff_off = 8.0;
                           cfg.attack_rate = mbps(6.0);  // 6 * 4/12 = 2 Mbps
                         } else if (attack == AttackType::kRolling) {
                           cfg.rolling_slot = 5.0;
                           cfg.attack_rate = mbps(12.0);  // 1 of 6 groups on
                         } else {
                           cfg.attack_rate = mbps(2.0);
                         }
                       }));
                   return CaseOutput{{{to_string(attack),
                                       {l.legit_legit, l.legit_attack, l.attack},
                                       to_string(scheme)}}};
                 }});
          }
        }
        return cases;
      },
      "(equal time-averaged attack strength in all three rows of a scheme; "
      "lower attack share + higher legit share = better)",
  };
}

// The paper evaluates a failure-free router; this quantifies the
// graceful-degradation machinery: how many control intervals FLoc needs to
// re-identify the attack paths after a state-losing reboot, and whether
// legitimate goodput re-converges (within 20% of its pre-fault level) after
// each fault. Baselines carry no router soft state in this simulator, so
// reboot/rotation are no-ops for them (their rows double as the fault-free
// reference); the link flap hits every scheme equally. Exits 1 unless FLoc
// re-converges after every fault with zero SimMonitor violations.
Figure ablation_churn() {
  return {
      "ablation_churn",
      "Dependability under churn - reboot / key rotation / link flap",
      "graceful degradation: legitimate goodput re-converges within 20% of "
      "its pre-fault level a bounded number of control intervals after "
      "each fault; attack paths re-latch after a state-losing reboot",
      "fault",
      {{"pre", "%8.3f"}, {"during", "%8.3f"}, {"after", "%8.3f"},
       {"after/pre", "%10.3f"}, {"relatch ivl", "%9.0f"},
       {"reissues", "%9.0f"}, {"mode-trans", "%10.0f"},
       {"violations", "%10.0f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (DefenseScheme scheme :
             {DefenseScheme::kFloc, DefenseScheme::kPushback,
              DefenseScheme::kRedPd, DefenseScheme::kDropTail}) {
          for (FaultKind fault : {FaultKind::kReboot, FaultKind::kKeyRotation,
                                  FaultKind::kLinkFlap}) {
            const std::uint64_t seed = a.run_seed(i++, kSeedStreamTreeScenario);
            cases.push_back({std::string(floc::to_string(scheme)) + "/" +
                                 to_string(fault),
                             seed,
                             [=] { return churn_case(scheme, fault, seed, a); }});
          }
        }
        return cases;
      },
      nullptr,
      [](const std::vector<Row>& rows, std::vector<std::string>*) {
        double violations = 0.0;
        bool floc_reconverged = true;
        for (const Row& r : rows) {
          violations += r["violations"];
          if (r.group == floc::to_string(DefenseScheme::kFloc) &&
              r["after/pre"] < 0.8) {
            floc_reconverged = false;
          }
        }
        std::printf("\ngoodput = legitimate-flow goodput as a fraction of the "
                    "target link;\nfault at t=%.0fs, windows of %.0fs; "
                    "reboot/rotation are no-ops for stateless baselines\n",
                    kFaultTime, kWindow);
        std::printf("FLoc re-convergence (after within 20%% of pre): %s; "
                    "invariant violations: %.0f\n",
                    floc_reconverged ? "yes" : "NO", violations);
        return (violations == 0.0 && floc_reconverged) ? 0 : 1;
      },
  };
}

}  // namespace floc::bench
