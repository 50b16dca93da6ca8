// Section VI figures on the Fig. 5 packet-level tree (and Fig. 2's single
// bottleneck, Fig. 4's analytic token-bucket model).
#include <cmath>
#include <cstdio>

#include "bench/figure.h"
#include "core/model.h"
#include "core/token_bucket.h"
#include "netsim/drop_tail.h"
#include "telemetry/alerts.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/time_series.h"
#include "telemetry/trace_export.h"
#include "telemetry/tracing.h"
#include "transport/flow_monitor.h"
#include "transport/tcp_sink.h"
#include "transport/tcp_source.h"
#include "util/rng.h"

namespace floc::bench {
namespace {

std::string fmt(const char* format, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

const DefenseScheme kCompared[] = {DefenseScheme::kFloc,
                                   DefenseScheme::kPushback,
                                   DefenseScheme::kRedPd};

// --- Fig. 2 ----------------------------------------------------------------
// n persistent TCP flows through one drop-tail bottleneck: service rate,
// drop rate, drop ratio against gamma = 8/(3W(W+2)), and the Section V-B.1
// flow-count estimate from (C, RTT, drop rate).
Row run_flows(int n, BitsPerSec bw, std::uint64_t seed, const BenchArgs& a) {
  Simulator sim;
  Network net(&sim);
  Router* r = net.add_router("r", 2);
  Host* server = net.add_host("server", 3);
  auto bottleneck = net.connect(
      r, server, bw, 0.005,
      std::make_unique<DropTailQueue>(
          static_cast<std::size_t>(std::max(50.0, bw * 0.05 / 12000.0))));
  FlowMonitor monitor;
  TcpSink sink(&sim, server, &monitor);

  std::vector<std::unique_ptr<TcpSource>> sources;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Host* h = net.add_host("h" + std::to_string(i), 1);
    net.connect(h, r, bw * 4, 0.005);
  }
  net.build_routes();
  for (int i = 0; i < n; ++i) {
    TcpSourceConfig cfg;
    cfg.flow = static_cast<FlowId>(i + 1);
    cfg.dst = server->addr();
    cfg.total_packets = 0;
    auto src = std::make_unique<TcpSource>(
        &sim, net.host_by_addr(static_cast<HostAddr>(i + 2)), cfg);
    src->start_at(rng.uniform(0.0, 2.0));
    monitor.register_flow(cfg.flow, {});
    sources.push_back(std::move(src));
  }

  const double warm = a.duration / 3.0;
  std::uint64_t sent_at_warm = 0, drops_at_warm = 0;
  sim.schedule_at(warm, [&] {
    sent_at_warm = bottleneck.ab->packets_sent();
    drops_at_warm = bottleneck.ab->queue().drops();
  });
  sim.run_until(a.duration);

  const double window = a.duration - warm;
  const double service_pps =
      static_cast<double>(bottleneck.ab->packets_sent() - sent_at_warm) / window;
  const double drop_pps =
      static_cast<double>(bottleneck.ab->queue().drops() - drops_at_warm) / window;
  RunningStats cwnd_stats, rtt_stats;
  for (const auto& s : sources) {
    cwnd_stats.add(s->cwnd());
    rtt_stats.add(s->srtt());
  }
  const double mean_window = cwnd_stats.mean();
  // Model drop ratio at the mean measured window (3/4 of peak => peak =
  // 4/3 * mean).
  const double w_peak = mean_window * 4.0 / 3.0;
  // Scalable-design inversion: flows from (C, RTT, drop rate), using the
  // routers' own RTT estimate (here: the sources' measured srtt mean).
  const double est_flows =
      model::estimate_flow_count(bw, rtt_stats.mean(), drop_pps, 1500);
  return {std::to_string(n),
          {service_pps, drop_pps,
           drop_pps / std::max(1.0, service_pps + drop_pps),
           model::drop_ratio(std::max(2.0, w_peak)), mean_window, est_flows}};
}

// --- Fig. 4 ----------------------------------------------------------------
// Fraction of link capacity admitted when each of n flows follows a W/2..W
// sawtooth and the bucket is refilled per Eq. IV.1/IV.2.
double sync_utilization(int n, double sync_degree, bool increased_bucket,
                        std::uint64_t seed) {
  const BitsPerSec c = mbps(100);
  const TimeSec rtt = 0.08;
  const int pkt = 1500;
  const auto params = model::compute_params(c, rtt, n, pkt);
  PathTokenBucket bucket;
  bucket.configure(params, pkt);

  Rng rng(seed);
  // Phase of each flow's sawtooth: sync_degree=1 -> all equal, 0 -> uniform.
  std::vector<double> phase(static_cast<std::size_t>(n));
  for (auto& ph : phase) ph = (1.0 - sync_degree) * rng.uniform();

  const double w_peak = params.peak_window;
  const TimeSec epoch = (w_peak / 2.0) * rtt;  // one sawtooth period
  const TimeSec dt = epoch / 200.0;
  const TimeSec total = 60.0 * epoch;

  double admitted_bytes = 0.0;
  double carry = 0.0;
  for (TimeSec t = 0.0; t < total; t += dt) {
    double rate_pkts = 0.0;  // aggregate instantaneous send rate in pkts/rtt
    for (int i = 0; i < n; ++i) {
      const double pos =
          std::fmod(t / epoch + phase[static_cast<std::size_t>(i)], 1.0);
      const double w = w_peak / 2.0 + pos * (w_peak / 2.0);  // sawtooth
      rate_pkts += w / rtt;
    }
    double want = rate_pkts * pkt * dt + carry;
    // Request in whole packets.
    while (want >= pkt) {
      if (bucket.try_consume(pkt, t, increased_bucket)) admitted_bytes += pkt;
      want -= pkt;
    }
    carry = want;
  }
  return admitted_bytes * 8.0 / (c * total);
}

// --- Fig. 6 ----------------------------------------------------------------
// One fully isolated world per attack: its own scenario, registry, tracer,
// flight recorder and alert engine. Besides the table row it writes the
// per-path byte series (fig06_<attack>.csv), a Chrome trace-event export of
// the causal spans (fig06_<attack>.trace.json, for ui.perfetto.dev) and the
// incident bundle (fig06_<attack>.incident.json).
CaseOutput attack_confinement(AttackType attack, std::uint64_t seed,
                              const BenchArgs& a) {
  TreeScenarioConfig cfg = fig5_config(a);
  cfg.scheme = DefenseScheme::kFloc;
  cfg.attack = attack;
  cfg.attack_rate = mbps(2.0);
  cfg.seed = seed;
  if (attack == AttackType::kShrew) {
    cfg.shrew_period = 0.05;
    cfg.shrew_duty = 0.25;
  }
  TreeScenario s(cfg);

  telemetry::Telemetry tel;
  tel.journal.set_enabled(telemetry::EventKind::kDrop, false);
  if (s.floc_queue() != nullptr) s.floc_queue()->attach_telemetry(&tel);
  for (int leaf = 0; leaf < s.leaf_count(); ++leaf) {
    const std::string pname = "L" + std::to_string(leaf);
    tel.registry.gauge_fn("path." + pname + ".bytes", [&s, pname] {
      return s.monitor().class_cumulative_bytes(
          [&pname](const FlowLabel& l) { return l.path_name == pname; });
    });
  }
  telemetry::TimeSeriesSampler sampler(&tel.registry, cfg.path_series_bucket);
  sampler.attach(&s.sim(), cfg.duration);

  // Ring-bounded: the export keeps the most recent ~32k spans (~10 MB of
  // JSON) — plenty of full send->queue->link chains without a gigabyte dump.
  telemetry::Tracer tracer(std::size_t{1} << 15);
  s.attach_tracer(&tracer);

  // Incident flight recorder: a pre-incident metric ring on the probe
  // cadence, with a deliberately tight drop alert (any drop at the FLoc
  // queue) so every attack case captures a bundle holding the latched
  // paths and their token-bucket levels at the moment the drops began.
  const std::string stem = std::string("fig06_") + to_string(attack);
  telemetry::FlightRecorder recorder(&tel.registry);
  recorder.set_journal(&tel.journal);
  recorder.set_tracer(&tracer);
  recorder.set_bench(stem);
  if (s.floc_queue() != nullptr) {
    recorder.add_queue("floc-bottleneck", s.floc_queue());
  }
  recorder.attach(&s.sim(), 0.5, cfg.duration);

  // Both rules fire at 1 and never clear: one fire edge, one capture. The
  // latch rule fires when the first path latches as attack, so its bundle's
  // FlocQueue state dump names the latched path with its token-bucket
  // levels.
  telemetry::AlertEngine alerts(&tel.registry);
  const std::pair<const char*, const char*> rules[] = {
      {"floc_drops_seen", "floc.drops.total"},
      {"floc_attack_latched", "floc.paths.attack"}};
  for (const auto& [name, metric] : rules) {
    telemetry::AlertRule r;
    r.name = name;
    r.metric = metric;
    r.kind = telemetry::AlertKind::kThreshold;
    r.threshold = 1.0;
    r.clear_threshold = 0.0;
    alerts.add_rule(r);
  }
  alerts.set_flight_recorder(&recorder);
  for (TimeSec t = 0.5; t < cfg.duration; t += 0.5) {
    s.sim().schedule_at(t, [&alerts, &s] { alerts.sample(s.sim().now()); });
  }

  s.run();

  CaseOutput out;
  for (int leaf = 0; leaf < s.leaf_count(); ++leaf) {
    sampler.add_rate_column("path.L" + std::to_string(leaf) + ".bytes");
  }
  std::string err;
  out.artifacts = {stem + ".csv", stem + ".trace.json", stem + ".incident.json"};
  warn_unless(sampler.save(out.artifacts[0], &err), "fig06", err);
  telemetry::TraceExportOptions opts;
  opts.process_names.emplace_back(s.target_link()->to()->id(),
                                  "target link (server gateway)");
  warn_unless(telemetry::write_chrome_trace(tracer, out.artifacts[1], opts,
                                            &err),
              "fig06", err);
  warn_unless(recorder.save(out.artifacts[2], &err), "fig06", err);
  out.metrics_stem = stem;
  out.metrics = snapshot(tel.registry);

  const double fair_path = s.scaled_target_bw() / s.leaf_count();
  const auto per_path = s.per_path_bps();
  RunningStats legit_paths, attack_paths;
  for (int leaf = 0; leaf < s.leaf_count(); ++leaf) {
    const auto it = per_path.find("L" + std::to_string(leaf));
    const double bps = it == per_path.end() ? 0.0 : it->second;
    (s.leaf_is_attack(leaf) ? attack_paths : legit_paths).add(bps / fair_path);
  }
  const LinkShares l = link_shares(s);
  out.rows.push_back({to_string(attack),
                      {legit_paths.mean(), legit_paths.stddev(),
                       attack_paths.mean(), l.legit_legit, l.util}});
  return out;
}

// --- Fig. 9 ----------------------------------------------------------------
// A third of the legitimate domains host 15 sources, the rest 30; attack
// paths stay aggregated (|S|_max = 25).
Row legit_aggregation(bool aggregate_legit, std::uint64_t seed,
                      const BenchArgs& a) {
  const auto s = run_fig5(a, seed, [&](TreeScenarioConfig& cfg) {
    cfg.scheme = DefenseScheme::kFloc;
    cfg.attack = AttackType::kCbr;
    cfg.attack_rate = mbps(2.0);
    cfg.legit_per_leaf_override = {15, 30, 30};  // every third domain smaller
    cfg.floc.s_max = 25;
    cfg.floc.aggregation_every = 2;
    // Without legit aggregation, only its half of aggregation is disabled,
    // by making the guard unsatisfiable.
    if (!aggregate_legit) cfg.floc.legit_max_increase = -1.0;
  });
  const Cdf legit = s->legit_path_flow_cdf();
  const Cdf attack_path_legit = s->monitor().bandwidth_cdf(
      FlowMonitor::is_legit_on_attack_path, "start", "end");
  return {aggregate_legit ? "legit aggregation" : "no aggregation",
          {legit.quantile(0.1) / 1e3, legit.quantile(0.5) / 1e3,
           legit.quantile(0.9) / 1e3, legit.mean() / 1e3,
           legit.quantile(0.9) / std::max(1.0, legit.quantile(0.1)),
           attack_path_legit.mean() / 1e3}};
}

}  // namespace

Figure fig02() {
  return {
      "fig02",
      "Fig. 2 / Sec. V-B.1 - service vs drop rate, flow-count estimation",
      "service rate >> drop rate at a congested link; drop ratio matches "
      "gamma=8/(3W(W+2)); flow count recoverable from drop rate",
      "flows",
      {{"service(p/s)", "%12.1f"}, {"drops(p/s)", "%12.2f"},
       {"drop ratio", "%12.5f"}, {"gamma(W)", "%10.5f"},
       {"meanW", "%10.1f"}, {"est flows", "%10.1f"}},
      [](const BenchArgs& a) {
        const BitsPerSec bw = mbps(a.paper ? 100 : 40);
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (int n : {4, 8, 16, 32}) {
          const std::uint64_t seed = a.run_seed(i++);
          cases.push_back({std::to_string(n) + " flows", seed,
                           [=] { return CaseOutput{{run_flows(n, bw, seed, a)}}; }});
        }
        return cases;
      },
      "shape check: service/drop ratio large; estimate tracks the actual "
      "flow count within ~2x.",
  };
}

Figure fig03() {
  return {
      "fig03",
      "Fig. 3 - robustness to packet-size mix",
      "confinement of an equal-bit-rate CBR flood is insensitive to the "
      "attacker's packet size (1500 / 1300 / 700 B)",
      "attack pkt",
      {{"legit/legitP", "%14.3f"}, {"legit/attackP", "%14.3f"},
       {"attack", "%12.3f"}, {"util", "%8.3f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (int size : {1500, 1300, 700}) {
          const std::uint64_t seed = a.run_seed(i++, kSeedStreamTreeScenario);
          cases.push_back({std::to_string(size) + "B", seed, [=] {
                             const LinkShares l = link_shares(*run_fig5(
                                 a, seed, [&](TreeScenarioConfig& cfg) {
                                   cfg.scheme = DefenseScheme::kFloc;
                                   cfg.attack = AttackType::kCbr;
                                   cfg.attack_rate = mbps(2.0);
                                   cfg.attack_packet_bytes = size;
                                 }));
                             return CaseOutput{{{std::to_string(size),
                                                 {l.legit_legit, l.legit_attack,
                                                  l.attack, l.util}}}};
                           }});
        }
        return cases;
      },
      "(the legit/attack split should be nearly constant across rows)",
  };
}

Figure fig04() {
  return {
      "fig04",
      "Fig. 4 - token consumption vs flow synchronization",
      "unsynchronized flows consume ~all tokens; fully synchronized flows "
      "consume ~3/4 with the base bucket; the increased bucket N' "
      "(Eq. IV.3) restores utilization",
      "synchronization",
      {{"util (base N)", "%14.3f"}, {"util (incr N')", "%14.3f"},
       {"tok-used@peak-N", "%18.3f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (double sync : {0.0, 0.5, 1.0}) {
          // Both variants share one derived seed so they see the same phases.
          const std::uint64_t seed = a.run_seed(i++);
          cases.push_back({fmt("degree %.1f", sync), seed, [=] {
                             const int n = 24;
                             const double base =
                                 sync_utilization(n, sync, false, seed);
                             const double incr =
                                 sync_utilization(n, sync, true, seed);
                             // The paper's "3/4 of generated tokens" sizes the
                             // bucket for the synchronized PEAK (4/3 of the
                             // mean): consumed fraction = util/(4/3).
                             return CaseOutput{
                                 {{fmt("degree %.1f", sync) +
                                       (sync == 0.0   ? " (unsync)"
                                        : sync == 1.0 ? " (sync)"
                                                      : ""),
                                   {base, incr, incr * 3.0 / 4.0}}}};
                           }});
        }
        return cases;
      },
      nullptr,
      [](const std::vector<Row>&, std::vector<std::string>*) {
        std::printf("\nmodel constants: synchronized utilization = %.2f, "
                    "peak/trough request ratio = %.1f\n",
                    model::synchronized_utilization(),
                    model::synchronized_peak_to_trough());
        return 0;
      },
  };
}

Figure fig06() {
  return {
      "fig06",
      "Fig. 6(a-c) - attack confinement (FLoc on the Fig. 5 tree)",
      "per-path bandwidth ~= fair share for all paths under a TCP "
      "population attack; legit paths gain under CBR/Shrew as fixed "
      "buckets pin the attack paths; Shrew handled ~as well as CBR",
      "attack",
      {{"legit(xfair)", "%11.3f"}, {"stdev", "%11.3f"},
       {"attack(xfair)", "%11.3f"}, {"legit link%", "%11.3f"},
       {"util", "%11.3f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (AttackType attack : {AttackType::kTcpPopulation,
                                  AttackType::kCbr, AttackType::kShrew}) {
          const std::uint64_t seed = a.run_seed(i++, kSeedStreamTreeScenario);
          cases.push_back({to_string(attack), seed, [=] {
                             return attack_confinement(attack, seed, a);
                           }});
        }
        return cases;
      },
      "(fair = link/27 per path; legit link% = legit-path traffic as a "
      "fraction of the link)",
  };
}

Figure fig07() {
  // The per-flow ideal fair bandwidth is scale-invariant: link/(27*legit).
  static constexpr double kFairFlow = 500e6 / (27.0 * 30.0);
  return {
      "fig07",
      "Fig. 7 - CDF of legit-path flow bandwidth vs attack strength",
      "FLoc CDFs nearly invariant in attack strength, mean ~fair share; "
      "Pushback and RED-PD shift left (starved) as the attack grows",
      "attack rate",
      {{"p10", "%9.0f"}, {"p50", "%9.0f"}, {"p90", "%9.0f"}, {"mean", "%9.0f"},
       {"frac>=fair/2", "%12.2f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (DefenseScheme scheme : kCompared) {
          for (double rate : {0.0, 0.5, 1.0, 2.0, 4.0}) {
            const std::uint64_t seed = a.run_seed(i++, kSeedStreamTreeScenario);
            char label[48];
            std::snprintf(label, sizeof(label), "%s @ %.1f Mbps/bot",
                          to_string(scheme), rate);
            cases.push_back({label, seed, [=] {
                               const Cdf cdf =
                                   run_fig5(a, seed,
                                            [&](TreeScenarioConfig& cfg) {
                                              cfg.scheme = scheme;
                                              cfg.attack =
                                                  rate > 0.0 ? AttackType::kCbr
                                                             : AttackType::kNone;
                                              cfg.attack_rate =
                                                  mbps(std::max(rate, 0.1));
                                            })
                                       ->legit_path_flow_cdf();
                               return CaseOutput{
                                   {{rate == 0.0 ? "no attack"
                                                 : fmt("%.1f Mbps/bot", rate),
                                     {cdf.quantile(0.1) / 1e3,
                                      cdf.quantile(0.5) / 1e3,
                                      cdf.quantile(0.9) / 1e3, cdf.mean() / 1e3,
                                      1.0 - cdf.fraction_below(kFairFlow / 2.0)},
                                     to_string(scheme)}}};
                             }});
          }
        }
        return cases;
      },
      "(kbps per flow; frac>=fair/2 = share of legit-path flows at or above "
      "half the ideal fair bandwidth)",
      [](const std::vector<Row>&, std::vector<std::string>*) {
        std::printf("ideal fair bandwidth per legit flow: %.0f kbps\n",
                    kFairFlow / 1e3);
        return 0;
      },
  };
}

Figure fig08() {
  return {
      "fig08",
      "Fig. 8 - differential guarantees with |S|_max = 25",
      "FLoc: legit-path flows hold >~0.8 of the link at all attack rates "
      "(~21/25 path shares); rising attack rates squeeze attack flows. "
      "Pushback loses legit-in-attack-path flows; RED-PD loses legit-path "
      "bandwidth at high rates",
      "Mbps/bot",
      {{"legit/legitP", "%14.3f"}, {"legit/attackP", "%14.3f"},
       {"attack", "%14.3f"}, {"util", "%8.3f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (DefenseScheme scheme : kCompared) {
          for (double rate : {0.2, 0.4, 0.8, 1.6, 2.4, 3.2, 4.0}) {
            const std::uint64_t seed = a.run_seed(i++, kSeedStreamTreeScenario);
            char label[48];
            std::snprintf(label, sizeof(label), "%s@%.1f", to_string(scheme),
                          rate);
            cases.push_back({label, seed, [=] {
                               const LinkShares l = link_shares(*run_fig5(
                                   a, seed, [&](TreeScenarioConfig& cfg) {
                                     cfg.scheme = scheme;
                                     cfg.attack = AttackType::kCbr;
                                     cfg.attack_rate = mbps(rate);
                                     // Forces aggregation of >= 4 of the 6
                                     // attack paths.
                                     cfg.floc.s_max = 25;
                                     cfg.floc.aggregation_every = 2;
                                   }));
                               return CaseOutput{
                                   {{fmt("%.1f", rate),
                                     {l.legit_legit, l.legit_attack, l.attack,
                                      l.util},
                                     to_string(scheme)}}};
                             }});
          }
        }
        return cases;
      },
      "(fractions of the target-link bandwidth)",
  };
}

Figure fig09() {
  return {
      "fig09",
      "Fig. 9 - legitimate-path aggregation (15- vs 30-source domains)",
      "without aggregation ~the bottom 80% of legit-path flows (populous "
      "domains) get ~half the bandwidth of the top 20%; aggregation "
      "removes the bimodality; legit flows of aggregated attack paths get "
      "less than legit-path flows",
      "case",
      {{"p10", "%9.0f"}, {"p50", "%9.0f"}, {"p90", "%9.0f"}, {"mean", "%9.0f"},
       {"p90/p10", "%10.2f"}, {"attack-path legit mean", nullptr}},
      [](const BenchArgs& a) {
        // Both cases share one derived seed: the comparison is aggregation
        // on/off over the *same* traffic draw.
        const std::uint64_t seed = a.run_seed(0, kSeedStreamTreeScenario);
        std::vector<Case> cases;
        for (bool on : {false, true}) {
          cases.push_back({on ? "aggregation on" : "aggregation off", seed,
                           [=] {
                             return CaseOutput{{legit_aggregation(on, seed, a)}};
                           }});
        }
        return cases;
      },
      "(kbps per flow; spread = p90/p10 of legit-path flows: aggregation "
      "should reduce it)",
      [](const std::vector<Row>& rows, std::vector<std::string>*) {
        const Row& on = rows[1];
        std::printf("legit flows inside (aggregated) attack paths, with "
                    "aggregation: mean %.0f kbps vs legit-path mean %.0f "
                    "kbps\n",
                    on["attack-path legit mean"], on["mean"]);
        return 0;
      },
  };
}

Figure fig10() {
  return {
      "fig10",
      "Fig. 10 - covert attacks (k legit-looking flows per bot, n_max=2)",
      "FLoc caps the covert army's share as k grows (slot accounting "
      "treats each bot as one high-rate source); Pushback reacts only "
      "when the aggregate exceeds the link; RED-PD hands the attackers "
      "bandwidth proportional to their flow count",
      "k",
      {{"legit frac", "%14.3f"}, {"attack frac", "%14.3f"}, {"util", "%10.3f"}},
      [](const BenchArgs& a) {
        std::vector<Case> cases;
        std::uint64_t i = 0;
        for (DefenseScheme scheme : kCompared) {
          for (int k : {1, 2, 5, 10, 20}) {
            const std::uint64_t seed = a.run_seed(i++, kSeedStreamTreeScenario);
            cases.push_back(
                {std::string(to_string(scheme)) + " k=" + std::to_string(k),
                 seed, [=] {
                   const LinkShares l = link_shares(
                       *run_fig5(a, seed, [&](TreeScenarioConfig& cfg) {
                         cfg.scheme = scheme;
                         cfg.attack = AttackType::kCovert;
                         cfg.covert_connections = k;
                         cfg.attack_rate = mbps(0.2);  // one fair share each
                         cfg.floc.n_max = 2;  // capability slots (IV-B.3)
                       }));
                   return CaseOutput{{{std::to_string(k),
                                       {l.legit, l.attack, l.util},
                                       to_string(scheme)}}};
                 }});
          }
        }
        return cases;
      },
      "(fractions of the target link over the measurement window)",
  };
}

}  // namespace floc::bench
