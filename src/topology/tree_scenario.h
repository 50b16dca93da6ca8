// The Section VI functional-evaluation scenario: the Fig. 5 tree topology
// (height 3, degree 3 => 27 leaf domains), 30 legitimate TCP sources per
// leaf, 60 extra attack sources on each of 6 designated attack leaves, and a
// 500 Mbps target link between the tree root and the destination server(s).
//
// A `scale` factor shrinks populations and link capacity together (per-flow
// fair bandwidth is invariant), so the full bench suite runs in minutes while
// `--paper` runs paper-scale parameters.
#pragma once

#include <memory>
#include <vector>

#include "baselines/rate_limiter.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "topology/defense_factory.h"
#include "transport/adaptive_source.h"
#include "transport/cbr_source.h"
#include "transport/flow_monitor.h"
#include "transport/rolling_source.h"
#include "transport/shrew_source.h"
#include "transport/state_exhaust_source.h"
#include "transport/tcp_sink.h"
#include "transport/tcp_source.h"
#include "util/rng.h"

namespace floc {

enum class AttackType {
  kNone,
  kTcpPopulation,  // Fig. 6(a): attack sources are plain persistent TCP
  kCbr,            // Fig. 6(b): fixed-rate unresponsive flood
  kShrew,          // Fig. 6(c): coordinated on/off pulses
  kCovert,         // Fig. 10: many low-rate flows per source, k destinations
  kOnOff,          // timed attack: coordinated long-period on/off bursts
  kRolling,        // timed attack: attack location rotates across domains
  kAdaptiveShrew,  // closed-loop: pulse period searched onto the token period
  kDutyCycle,      // closed-loop: goes quiet when latched, probes the release
  kProbingCovert,  // closed-loop: rotates flow ids/destinations when starved
  kStateExhaust,   // closed-loop: churns path/sender identities to exhaust
                   // the defense's per-path/per-flow/per-sender tables
};
inline constexpr std::size_t kAttackTypeCount = 11;

const char* to_string(AttackType a);
// Inverse of to_string; returns false (and leaves *out alone) for unknown
// names. Round-tripped exhaustively in tests.
bool from_string(const std::string& name, AttackType* out);

struct TreeScenarioConfig {
  // Topology (Fig. 5).
  int tree_degree = 3;
  int tree_height = 3;             // leaves = degree^height
  int legit_per_leaf = 30;
  std::vector<int> legit_per_leaf_override;  // per-leaf counts (Fig. 9)
  int attack_leaf_count = 6;
  int attack_per_leaf = 60;
  double scale = 1.0;              // multiplies populations and link rate

  BitsPerSec target_link = mbps(500);
  BitsPerSec internal_link = mbps(1200);
  BitsPerSec access_link = mbps(20);
  TimeSec hop_delay = 0.005;
  TimeSec access_delay = 0.001;
  std::size_t bottleneck_buffer = 0;  // 0 => sized from bandwidth-delay

  // Traffic.
  std::uint64_t legit_file_bytes = 12'000'000;  // 12 MB per paper
  TimeSec legit_start_spread = 5.0;             // uniform start in [0, spread]
  AttackType attack = AttackType::kCbr;
  BitsPerSec attack_rate = mbps(2.0);           // per-source (peak for Shrew)
  TimeSec attack_start = 5.0;
  double shrew_duty = 0.25;        // burst fraction of the period
  TimeSec shrew_period = 0.05;     // ~ RTT
  int covert_connections = 5;      // flows per covert source
  TimeSec onoff_on = 4.0;          // ON duration (kOnOff)
  TimeSec onoff_off = 8.0;         // OFF duration (kOnOff)
  TimeSec rolling_slot = 5.0;      // per-group active time (kRolling)
  int attack_packet_bytes = 1500;  // attack packet size (Fig. 3 robustness)
  TimeSec adapt_epoch = 0.25;      // kAdaptiveShrew adaptation cadence
  TimeSec duty_quiet = 1.5;        // kDutyCycle initial quiet-period guess
  int probe_pool = 15;             // kProbingCovert flow ids per source
  TimeSec probe_interval = 1.0;    // kProbingCovert rotation cadence
  double state_churn_per_sec = 50.0;  // kStateExhaust initial rotation rate
  int state_identity_pool = 1 << 12;  // kStateExhaust flow ids per source
  bool state_spoof_sender = false;    // kStateExhaust forged source addrs

  // Defense on the target link.
  DefenseScheme scheme = DefenseScheme::kFloc;
  FlocConfig floc;                 // bandwidth/buffer filled by the scenario
  PushbackConfig pushback;
  // Pushback upstream propagation: install rate limiters on the root's
  // child uplinks so aggregate excess is shed one hop earlier.
  bool pushback_upstream = true;
  RedPdConfig red_pd;

  // Run control.
  TimeSec duration = 80.0;
  TimeSec measure_start = 20.0;
  TimeSec measure_end = 80.0;
  TimeSec path_series_bucket = 1.0;  // sampler period of Fig. 6's series
  std::uint64_t seed = 1;
};

class TreeScenario {
 public:
  explicit TreeScenario(TreeScenarioConfig cfg);

  // Build the network, run to cfg.duration, take "start"/"end" snapshots.
  void run();

  // --- Result accessors ----------------------------------------------------
  FlowMonitor& monitor() { return monitor_; }
  Simulator& sim() { return sim_; }
  QueueDisc& bottleneck_queue() { return *bottleneck_queue_; }
  FlocQueue* floc_queue();  // nullptr unless scheme == kFloc
  Link* target_link() { return target_link_; }

  struct ClassBandwidth {
    double legit_legit_bps = 0.0;   // legitimate flows on legitimate paths
    double legit_attack_bps = 0.0;  // legitimate flows on attack paths
    double attack_bps = 0.0;        // attack flows
  };
  ClassBandwidth class_bandwidth() const;

  // CDF of per-flow bandwidth of legitimate flows on legitimate paths
  // (Figs. 7 and 9).
  Cdf legit_path_flow_cdf() const;

  // Mean bandwidth per path over the measurement window (Fig. 6).
  std::map<std::string, double> per_path_bps() const;

  int leaf_count() const { return leaf_count_; }
  bool leaf_is_attack(int leaf) const;
  const PathId& leaf_path(int leaf) const {
    return leaf_paths_[static_cast<std::size_t>(leaf)];
  }
  BitsPerSec scaled_target_bw() const { return scaled_target_bw_; }
  int legit_flow_total() const { return legit_flow_total_; }

  // Attack-source introspection (adaptive-adversary tests/benches): the
  // CBR-derived attack sources (incl. adaptive ones) and the probing-covert
  // sources, in construction order.
  const std::vector<std::unique_ptr<CbrSource>>& attack_sources() const {
    return cbr_sources_;
  }
  const std::vector<std::unique_ptr<ProbingCovertSource>>& probing_sources()
      const {
    return probing_sources_;
  }
  const std::vector<std::unique_ptr<StateExhaustSource>>& state_exhaust_sources()
      const {
    return state_exhaust_sources_;
  }

  // Attach causal span tracing to the interesting components: every
  // legitimate TCP source (send/ACK spans) and the target link (queue
  // residency with the defense's admission verdict, wire spans). Call after
  // construction, before run(). Null detaches.
  void attach_tracer(telemetry::Tracer* tracer);

 private:
  void build();
  int scaled(int count) const;

  TreeScenarioConfig cfg_;
  Simulator sim_;
  Network net_;
  Rng rng_;
  FlowMonitor monitor_;

  std::vector<std::unique_ptr<TcpSource>> tcp_sources_;
  std::vector<std::unique_ptr<CbrSource>> cbr_sources_;
  std::vector<std::unique_ptr<ProbingCovertSource>> probing_sources_;
  std::vector<std::unique_ptr<StateExhaustSource>> state_exhaust_sources_;
  std::vector<std::unique_ptr<TcpSink>> sinks_;

  QueueDisc* bottleneck_queue_ = nullptr;
  Link* target_link_ = nullptr;
  std::vector<Link*> depth1_uplinks_;  // root's children -> root
  std::vector<PathId> leaf_paths_;
  std::vector<bool> leaf_attack_;
  int leaf_count_ = 0;
  int legit_flow_total_ = 0;
  BitsPerSec scaled_target_bw_ = 0.0;
  FlowId next_flow_ = 1;
};

}  // namespace floc
