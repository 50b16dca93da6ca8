// Section VII figures on the Internet-scale tick model: the synthetic
// Skitter topologies (Figs. 11/12), the bandwidth guarantees under
// localized, wide and separated attacks (Figs. 13-15), and the
// per-mechanism ablation.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/figure.h"
#include "inetsim/inet_experiment.h"
#include "topology/bot_distribution.h"

namespace floc::bench {
namespace {

const SkitterPreset kPresets[] = {SkitterPreset::kFRoot, SkitterPreset::kHRoot,
                                  SkitterPreset::kJpn};

double inet_scale(const BenchArgs& a) { return a.paper ? 1.0 : 0.05; }

// Seed of the `index`-th Internet-scale topology world under this master
// seed. Shared by Figs. 11-15 and the inet ablation so the topologies
// Fig. 11/12 renders are the ones Figs. 13-15 simulate.
std::uint64_t inet_topology_seed(const BenchArgs& a, std::uint64_t index = 0) {
  return a.run_seed(index, kSeedStreamInetTopology);
}

// Figs. 13-15: one case per Skitter topology, one row per policy.
Figure inet_figure(const char* name, const char* title, const char* paper,
                   int attack_ases, double overlap) {
  return {
      name,
      title,
      paper,
      "policy",
      {{"legit(legitAS)%", "%15.1f%%"}, {"legit(attackAS)%", "%16.1f%%"},
       {"attack%", "%9.1f%%"}, {"util%", "%7.1f%%"}, {"paths", "%7.0f"}},
      [=](const BenchArgs& a) {
        std::vector<Case> cases;
        for (std::size_t i = 0; i < std::size(kPresets); ++i) {
          InetExperimentConfig cfg;
          cfg.preset = kPresets[i];
          cfg.attack_ases = attack_ases;
          cfg.legit_overlap = overlap;
          cfg.scale = inet_scale(a);
          cfg.ticks = a.paper ? 6000 : 3000;
          cfg.seed = inet_topology_seed(a, i);
          cases.push_back({to_string(cfg.preset), cfg.seed, [cfg] {
                             CaseOutput out;
                             for (const auto& row : run_inet_experiment(cfg)) {
                               const TickResults& r = row.results;
                               out.rows.push_back(
                                   {row.label,
                                    {100.0 * r.legit_legit_frac,
                                     100.0 * r.legit_attack_frac,
                                     100.0 * r.attack_frac,
                                     100.0 * r.utilization,
                                     static_cast<double>(r.aggregate_count)},
                                    to_string(cfg.preset)});
                             }
                             return out;
                           }});
        }
        return cases;
      },
      nullptr,
      [](const std::vector<Row>& rows, std::vector<std::string>*) {
        // Cross-topology spread of the FLoc rows: NA (no guarantee) and
        // A-<n> (n guaranteed paths).
        RunningStats legit, util;
        for (const Row& r : rows) {
          if (r.label == "NA" || r.label.rfind("A-", 0) == 0) {
            legit.add(r["legit(legitAS)%"]);
            util.add(r["util%"]);
          }
        }
        if (legit.count() > 0) {
          std::printf("\nfloc rows (NA, A-*) across topologies: legit(legitAS) "
                      "%.1f%% +/- %.1f, util %.1f%% +/- %.1f\n",
                      legit.mean(), legit.stddev(), util.mean(),
                      util.stddev());
        }
        return 0;
      },
      [=](const BenchArgs& a) {
        return std::vector<std::pair<std::string, double>>{
            {"attack_ases", static_cast<double>(attack_ases)},
            {"legit_overlap", overlap},
            {"inet_scale", inet_scale(a)}};
      },
  };
}

}  // namespace

Figure fig11_12() {
  return {
      "fig11_12",
      "Figs. 11/12 - synthetic Skitter topologies + bot placement",
      "complex AS trees; attack ASes interleaved with legitimate ones "
      "(f-root/h-root) or deeper and better separated (JPN); bots highly "
      "concentrated (CBL: 95% of bots in 1.7% of ASes)",
      "preset",
      {{"attackAS", "%8.0f"}, {"ASes", "%6.0f"}, {"depth", "%7.2f"},
       {"max depth", "%10.0f"}, {"atk depth", "%11.2f"},
       {"legit depth", "%11.2f"}, {"bots@top17%", "%11.0f%%"},
       {"legit-in-atk", "%13.0f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        for (int attack_ases : {100, 300}) {
          for (std::size_t i = 0; i < std::size(kPresets); ++i) {
            InetExperimentConfig cfg;
            cfg.preset = kPresets[i];
            cfg.attack_ases = attack_ases;
            cfg.scale = inet_scale(a);
            // Seed matches the preset's simulated world in Figs. 13-15: the
            // same topologies are rendered here and simulated there.
            cfg.seed = inet_topology_seed(a, i);
            cases.push_back(
                {std::string(to_string(cfg.preset)) + "@" +
                     std::to_string(attack_ases),
                 cfg.seed, [cfg] {
                   const TopologyStats st = topology_stats(cfg);
                   return CaseOutput{
                       {{st.preset,
                         {static_cast<double>(cfg.attack_ases),
                          static_cast<double>(st.ases), st.mean_depth,
                          static_cast<double>(st.max_depth),
                          st.mean_attack_depth, st.mean_legit_depth,
                          100.0 * st.bot_concentration_top17pct,
                          static_cast<double>(st.legit_in_attack_ases)}}}};
                 }});
          }
        }
        return cases;
      },
      "(JPN should show the largest mean depth; attack-AS mean depth >= "
      "legit for JPN = better separation)",
  };
}

Figure fig13() {
  return inet_figure(
      "fig13", "Fig. 13 - Internet-scale, localized attack (100 attack ASes)",
      "ND: legit denied (~0%); FF: legit ~20% (above its ~9% fair share via "
      "priority); FLoc NA: legit-path flows ~70-75%; aggregation (A-*) "
      "raises legit-path bandwidth further and trims legit flows inside "
      "attack ASes; per-flow, legit >> attack",
      /*attack_ases=*/100, /*overlap=*/0.3);
}

Figure fig14() {
  return inet_figure(
      "fig14",
      "Fig. 14 - Internet-scale, wide attack dispersion (300 attack ASes)",
      "vs Fig. 13: legit-path bandwidth under NA decreases (more active "
      "paths dilute each share, more ASes turn attack) while legit flows in "
      "attack ASes gain; aggregation is MORE effective against dispersed "
      "attacks",
      /*attack_ases=*/300, /*overlap=*/0.3);
}

Figure fig15() {
  return inet_figure(
      "fig15",
      "Fig. 15 - Internet-scale, separated legit/attack ASes (overlap 0)",
      "with legitimate ASes disjoint from attack ASes, localization is "
      "cleanest: legit-path bandwidth is highest and legit traffic inside "
      "attack ASes ~vanishes; aggregation keeps its advantage",
      /*attack_ases=*/100, /*overlap=*/0.0);
}

// Which part of the Section VII result comes from which mechanism, on the
// localized f-root scenario:
//   quotas-only — per-path fair allocation, no per-flow preferential filter
//   full (NA)   — per-path quotas + preferential filter
//   full (A)    — plus conformance-driven aggregation
Figure ablation_inet() {
  return {
      "ablation_inet",
      "Internet-scale ablation (f-root, localized attack)",
      "path quotas alone localize the flood; the preferential filter "
      "squeezes bots inside their quotas; aggregation returns the "
      "contaminated domains' shares to legitimate ones",
      "variant",
      {{"legit(legitAS)%", "%15.1f%%"}, {"legit(attackAS)%", "%16.1f%%"},
       {"attack%", "%9.1f%%"}, {"paths", "%8.0f"}},
      [](const BenchArgs& a) {
        const double scale = inet_scale(a);
        SkitterConfig scfg;
        scfg.as_count = std::max(300, static_cast<int>(2000 * std::sqrt(scale)));
        scfg.seed = inet_topology_seed(a);
        PlacementConfig pcfg;
        pcfg.legit_sources = std::max(100, static_cast<int>(10000 * scale));
        pcfg.legit_ases = std::max(20, static_cast<int>(200 * std::sqrt(scale)));
        pcfg.attack_sources = std::max(1000, static_cast<int>(100000 * scale));
        pcfg.attack_ases = std::max(10, static_cast<int>(100 * std::sqrt(scale)));
        pcfg.seed = a.run_seed(0, kSeedStreamInetPlacement);
        // The graph and placement are shared read-only by the variant runs;
        // each TickSim owns its world (tick state + Rng from its cfg.seed).
        const auto graph =
            std::make_shared<const AsGraph>(generate_skitter_tree(scfg));
        const auto placement = std::make_shared<const SourcePlacement>(
            place_sources(*graph, pcfg));

        TickConfig base;
        base.bottleneck_capacity = std::max(200, static_cast<int>(16000 * scale));
        base.internal_capacity = 4 * base.bottleneck_capacity;
        base.ticks = a.paper ? 6000 : 3000;
        base.warmup_ticks = base.ticks / 3;
        base.seed = a.run_seed(0, kSeedStreamInetTick);
        base.policy = TickPolicy::kFloc;

        TickConfig quotas = base;
        quotas.attack_over_rate = 1e9;  // filter never triggers: quotas only
        TickConfig aggregated = base;
        aggregated.guaranteed_paths = std::max(
            4, static_cast<int>((pcfg.legit_ases + pcfg.attack_ases) * 0.6));
        const std::pair<const char*, TickConfig> variants[] = {
            {"quotas-only", quotas}, {"full (NA)", base},
            {"full (A)", aggregated}};

        std::vector<Case> cases;
        for (const auto& v : variants) {
          const std::string label = v.first;
          const TickConfig cfg = v.second;
          cases.push_back({label, cfg.seed, [=] {
                             TickSim sim(*graph, *placement, cfg);
                             const TickResults r = sim.run();
                             return CaseOutput{
                                 {{label,
                                   {100.0 * r.legit_legit_frac,
                                    100.0 * r.legit_attack_frac,
                                    100.0 * r.attack_frac,
                                    static_cast<double>(r.aggregate_count)}}}};
                           }});
        }
        return cases;
      },
      "(each mechanism should add legitimate-path bandwidth on top of the "
      "previous row)",
      nullptr,
      [](const BenchArgs& a) {
        return std::vector<std::pair<std::string, double>>{
            {"inet_scale", inet_scale(a)}};
      },
  };
}

}  // namespace floc::bench
