#include "topology/tree_scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace floc {

const char* to_string(AttackType a) {
  switch (a) {
    case AttackType::kNone: return "none";
    case AttackType::kTcpPopulation: return "tcp-population";
    case AttackType::kCbr: return "cbr";
    case AttackType::kShrew: return "shrew";
    case AttackType::kCovert: return "covert";
    case AttackType::kOnOff: return "on-off";
    case AttackType::kRolling: return "rolling";
    case AttackType::kAdaptiveShrew: return "adaptive-shrew";
    case AttackType::kDutyCycle: return "duty-cycle";
    case AttackType::kProbingCovert: return "probing-covert";
    case AttackType::kStateExhaust: return "state-exhaust";
  }
  return "?";
}

bool from_string(const std::string& name, AttackType* out) {
  for (std::size_t i = 0; i < kAttackTypeCount; ++i) {
    const AttackType a = static_cast<AttackType>(i);
    if (name == to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

TreeScenario::TreeScenario(TreeScenarioConfig cfg)
    : cfg_(cfg), net_(&sim_), rng_(cfg.seed) {
  build();
}

int TreeScenario::scaled(int count) const {
  return std::max(1, static_cast<int>(std::lround(count * cfg_.scale)));
}

bool TreeScenario::leaf_is_attack(int leaf) const {
  return leaf_attack_[static_cast<std::size_t>(leaf)];
}

FlocQueue* TreeScenario::floc_queue() {
  return cfg_.scheme == DefenseScheme::kFloc
             ? static_cast<FlocQueue*>(bottleneck_queue_)
             : nullptr;
}

void TreeScenario::build() {
  const int degree = cfg_.tree_degree;
  const int height = cfg_.tree_height;
  leaf_count_ = 1;
  for (int i = 0; i < height; ++i) leaf_count_ *= degree;

  scaled_target_bw_ = cfg_.target_link * cfg_.scale;
  const BitsPerSec internal_bw = cfg_.internal_link * cfg_.scale;

  // --- Routers: root + full tree ------------------------------------------
  // AS numbering: root domain 1; internal/leaf domains numbered by position.
  Router* root = net_.add_router("root", 1);
  std::vector<std::vector<Router*>> levels{{root}};
  AsNumber next_as = 2;
  for (int lvl = 1; lvl <= height; ++lvl) {
    std::vector<Router*> cur;
    for (Router* parent : levels[static_cast<std::size_t>(lvl - 1)]) {
      for (int c = 0; c < degree; ++c) {
        Router* r = net_.add_router(
            "r" + std::to_string(lvl) + "_" + std::to_string(cur.size()),
            next_as++);
        auto d = net_.connect(parent, r, internal_bw, cfg_.hop_delay);
        if (lvl == 1) depth1_uplinks_.push_back(d.ba);  // child -> root
        cur.push_back(r);
      }
    }
    levels.push_back(std::move(cur));
  }
  std::vector<Router*>& leaves = levels[static_cast<std::size_t>(height)];
  assert(static_cast<int>(leaves.size()) == leaf_count_);

  // Path identifier of each leaf: domains from the root's child down to the
  // leaf, nearest-to-router first (Section III-A).
  leaf_paths_.resize(static_cast<std::size_t>(leaf_count_));
  for (int leaf = 0; leaf < leaf_count_; ++leaf) {
    PathId p;
    int idx = leaf;
    std::vector<int> chain;  // node index at each level from top to leaf
    for (int lvl = height; lvl >= 1; --lvl) {
      chain.push_back(idx);
      idx /= degree;
    }
    std::reverse(chain.begin(), chain.end());
    for (int lvl = 1; lvl <= height; ++lvl) {
      p.push_origin(levels[static_cast<std::size_t>(lvl)]
                          [static_cast<std::size_t>(chain[static_cast<std::size_t>(lvl - 1)])]
                              ->as_number());
    }
    leaf_paths_[static_cast<std::size_t>(leaf)] = p;
  }

  // --- Attack leaves: spread across distinct subtrees ---------------------
  leaf_attack_.assign(static_cast<std::size_t>(leaf_count_), false);
  {
    int marked = 0;
    // Step through leaves with a stride that lands in different subtrees.
    const int stride = std::max(1, leaf_count_ / std::max(1, cfg_.attack_leaf_count));
    for (int i = 1; marked < cfg_.attack_leaf_count && marked < leaf_count_;
         i += stride) {
      leaf_attack_[static_cast<std::size_t>(i % leaf_count_)] = true;
      ++marked;
    }
  }

  // --- Server side ----------------------------------------------------------
  Router* server_gw = net_.add_router("server-gw", 1000);
  const int n_servers = (cfg_.attack == AttackType::kCovert ||
                         cfg_.attack == AttackType::kProbingCovert)
                            ? std::max(1, cfg_.covert_connections)
                            : 1;
  std::vector<Host*> servers;
  for (int s = 0; s < n_servers; ++s) {
    Host* h = net_.add_host("server" + std::to_string(s), 1000);
    net_.connect(server_gw, h, internal_bw, cfg_.access_delay);
    sinks_.push_back(std::make_unique<TcpSink>(&sim_, h, &monitor_));
    servers.push_back(h);
  }

  // --- The target (flooded) link root -> server gateway --------------------
  const TimeSec approx_rtt =
      2.0 * (cfg_.access_delay + height * cfg_.hop_delay + cfg_.hop_delay);
  std::size_t buffer = cfg_.bottleneck_buffer;
  if (buffer == 0) {
    // ~1.5x bandwidth-delay product, floor of 100 packets.
    buffer = std::max<std::size_t>(
        100, static_cast<std::size_t>(1.5 * scaled_target_bw_ * approx_rtt /
                                      (kBitsPerByte * kFullPacketBytes)));
  }
  DefenseFactoryConfig fcfg;
  fcfg.link_bandwidth = scaled_target_bw_;
  fcfg.buffer_packets = buffer;
  fcfg.seed = cfg_.seed ^ 0xDEF;
  fcfg.floc = cfg_.floc;
  fcfg.pushback = cfg_.pushback;
  fcfg.red_pd = cfg_.red_pd;
  fcfg.legit_classifier = [this](FlowId f) {
    return monitor_.is_registered(f) &&
           monitor_.label(f).cls == FlowClass::kLegitimate;
  };
  auto qdisc = make_defense_queue(cfg_.scheme, std::move(fcfg));

  auto duplex = net_.connect(root, server_gw, scaled_target_bw_, cfg_.hop_delay);
  duplex.ab->set_queue(std::move(qdisc));
  bottleneck_queue_ = &duplex.ab->queue();
  target_link_ = duplex.ab;

  // Pushback propagation: rate limiters one hop upstream, driven by the
  // congested queue's aggregate limits.
  if (cfg_.scheme == DefenseScheme::kPushback && cfg_.pushback_upstream) {
    std::vector<RateLimiterQueue*> limiters;
    for (Link* up : depth1_uplinks_) {
      auto q = std::make_unique<RateLimiterQueue>(200);
      limiters.push_back(q.get());
      up->set_queue(std::move(q));
    }
    auto* pb = static_cast<PushbackQueue*>(bottleneck_queue_);
    pb->set_pushback_handler(
        [limiters](const PathId& prefix, BitsPerSec rate, TimeSec expires) {
          for (RateLimiterQueue* lq : limiters) {
            lq->install_limit(prefix, rate, expires);
          }
        });
    // Status feedback: report the traffic the upstream limiters shed so the
    // congested queue keeps seeing the aggregates' true offered rates.
    pb->set_shed_probe([limiters](const PathId& prefix) {
      double shed = 0.0;
      for (RateLimiterQueue* lq : limiters) shed += lq->take_shed_bytes(prefix);
      return shed;
    });
  }

  // --- Sources -------------------------------------------------------------
  const std::uint64_t legit_pkts =
      (cfg_.legit_file_bytes + kFullPacketBytes - 1) / kFullPacketBytes;

  for (int leaf = 0; leaf < leaf_count_; ++leaf) {
    Router* lr = leaves[static_cast<std::size_t>(leaf)];
    const PathId& path = leaf_paths_[static_cast<std::size_t>(leaf)];
    const bool attack_leaf = leaf_attack_[static_cast<std::size_t>(leaf)];
    const std::string path_name = "L" + std::to_string(leaf);

    int legit_here = cfg_.legit_per_leaf;
    if (!cfg_.legit_per_leaf_override.empty())
      legit_here = cfg_.legit_per_leaf_override[static_cast<std::size_t>(
          leaf % static_cast<int>(cfg_.legit_per_leaf_override.size()))];
    legit_here = scaled(legit_here);

    // Legitimate TCP sources: 12 MB transfer to the primary server.
    for (int i = 0; i < legit_here; ++i) {
      Host* h = net_.add_host("h" + std::to_string(leaf) + "_" + std::to_string(i),
                              path.origin());
      net_.connect(lr, h, cfg_.access_link, cfg_.access_delay);
      TcpSourceConfig scfg;
      scfg.flow = next_flow_++;
      scfg.dst = servers[0]->addr();
      scfg.path = path;
      scfg.total_packets = legit_pkts;
      auto src = std::make_unique<TcpSource>(&sim_, h, scfg);
      src->start_at(rng_.uniform(0.0, cfg_.legit_start_spread));
      monitor_.register_flow(
          scfg.flow, FlowLabel{FlowClass::kLegitimate, attack_leaf,
                               path.key(), path_name});
      tcp_sources_.push_back(std::move(src));
      ++legit_flow_total_;
    }

    if (!attack_leaf || cfg_.attack == AttackType::kNone) continue;

    // Attack sources.
    int attack_leaf_index = 0;  // rotation group for kRolling
    for (int l2 = 0; l2 < leaf; ++l2) {
      if (leaf_attack_[static_cast<std::size_t>(l2)]) ++attack_leaf_index;
    }
    const int bots = scaled(cfg_.attack_per_leaf);
    for (int i = 0; i < bots; ++i) {
      Host* h = net_.add_host("a" + std::to_string(leaf) + "_" + std::to_string(i),
                              path.origin());
      net_.connect(lr, h, cfg_.access_link, cfg_.access_delay);
      switch (cfg_.attack) {
        case AttackType::kTcpPopulation: {
          TcpSourceConfig scfg;
          scfg.flow = next_flow_++;
          scfg.dst = servers[0]->addr();
          scfg.path = path;
          scfg.total_packets = 0;  // persistent
          auto src = std::make_unique<TcpSource>(&sim_, h, scfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 1.0));
          monitor_.register_flow(
              scfg.flow,
              FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          tcp_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kCbr: {
          CbrConfig ccfg;
          ccfg.flow = next_flow_++;
          ccfg.dst = servers[0]->addr();
          ccfg.path = path;
          ccfg.rate = cfg_.attack_rate;
          ccfg.packet_bytes = cfg_.attack_packet_bytes;
          auto src = std::make_unique<CbrSource>(&sim_, h, ccfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          monitor_.register_flow(
              ccfg.flow,
              FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          cbr_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kShrew: {
          ShrewConfig shcfg;
          shcfg.cbr.flow = next_flow_++;
          shcfg.cbr.dst = servers[0]->addr();
          shcfg.cbr.path = path;
          shcfg.cbr.rate = cfg_.attack_rate;
          shcfg.burst_len = cfg_.shrew_duty * cfg_.shrew_period;
          shcfg.period = cfg_.shrew_period;
          shcfg.phase = 0.0;  // all sources coordinate their bursts
          auto src = std::make_unique<ShrewSource>(&sim_, h, shcfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          monitor_.register_flow(
              shcfg.cbr.flow,
              FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          cbr_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kCovert: {
          // k legitimate-looking low-rate flows to k distinct destinations.
          for (int c = 0; c < cfg_.covert_connections; ++c) {
            CbrConfig ccfg;
            ccfg.flow = next_flow_++;
            ccfg.dst = servers[static_cast<std::size_t>(c % n_servers)]->addr();
            ccfg.path = path;
            ccfg.rate = cfg_.attack_rate;
            auto src = std::make_unique<CbrSource>(&sim_, h, ccfg);
            src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
            monitor_.register_flow(
                ccfg.flow,
                FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
            cbr_sources_.push_back(std::move(src));
          }
          break;
        }
        case AttackType::kOnOff: {
          OnOffConfig ocfg;
          ocfg.cbr.flow = next_flow_++;
          ocfg.cbr.dst = servers[0]->addr();
          ocfg.cbr.path = path;
          ocfg.cbr.rate = cfg_.attack_rate;
          ocfg.cbr.packet_bytes = cfg_.attack_packet_bytes;
          ocfg.on_time = cfg_.onoff_on;
          ocfg.off_time = cfg_.onoff_off;
          ocfg.phase = 0.0;  // botnet-wide coordination
          auto src = std::make_unique<OnOffSource>(&sim_, h, ocfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          monitor_.register_flow(
              ocfg.cbr.flow,
              FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          cbr_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kRolling: {
          RollingConfig rcfg;
          rcfg.cbr.flow = next_flow_++;
          rcfg.cbr.dst = servers[0]->addr();
          rcfg.cbr.path = path;
          rcfg.cbr.rate = cfg_.attack_rate;
          rcfg.cbr.packet_bytes = cfg_.attack_packet_bytes;
          rcfg.group = attack_leaf_index;
          rcfg.group_count = std::max(1, cfg_.attack_leaf_count);
          rcfg.slot = cfg_.rolling_slot;
          auto src = std::make_unique<RollingSource>(&sim_, h, rcfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          monitor_.register_flow(
              rcfg.cbr.flow,
              FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          cbr_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kAdaptiveShrew: {
          AdaptiveShrewConfig acfg;
          acfg.cbr.flow = next_flow_++;
          acfg.cbr.dst = servers[0]->addr();
          acfg.cbr.path = path;
          acfg.cbr.rate = cfg_.attack_rate;
          acfg.cbr.packet_bytes = cfg_.attack_packet_bytes;
          acfg.init_period = cfg_.shrew_period;
          acfg.duty = cfg_.shrew_duty;
          acfg.epoch = cfg_.adapt_epoch;
          auto src = std::make_unique<AdaptiveShrewSource>(&sim_, h, acfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          monitor_.register_flow(
              acfg.cbr.flow,
              FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          cbr_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kDutyCycle: {
          DutyCycleConfig dycfg;
          dycfg.cbr.flow = next_flow_++;
          dycfg.cbr.dst = servers[0]->addr();
          dycfg.cbr.path = path;
          dycfg.cbr.rate = cfg_.attack_rate;
          dycfg.cbr.packet_bytes = cfg_.attack_packet_bytes;
          dycfg.quiet_base = cfg_.duty_quiet;
          auto src = std::make_unique<DutyCycleSource>(&sim_, h, dycfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          monitor_.register_flow(
              dycfg.cbr.flow,
              FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          cbr_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kProbingCovert: {
          ProbingCovertConfig pcfg;
          pcfg.first_flow = next_flow_;
          next_flow_ += static_cast<FlowId>(cfg_.probe_pool);
          for (Host* s : servers) pcfg.dsts.push_back(s->addr());
          pcfg.path = path;
          pcfg.packet_bytes = cfg_.attack_packet_bytes;
          pcfg.rate = cfg_.attack_rate;
          pcfg.active_flows =
              std::min(std::max(1, cfg_.covert_connections), cfg_.probe_pool);
          pcfg.pool = cfg_.probe_pool;
          pcfg.probe_interval = cfg_.probe_interval;
          auto src = std::make_unique<ProbingCovertSource>(&sim_, h, pcfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          for (FlowId f : src->flow_pool()) {
            monitor_.register_flow(
                f, FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          }
          probing_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kStateExhaust: {
          StateExhaustConfig scfg;
          scfg.first_flow = next_flow_;
          next_flow_ += static_cast<FlowId>(cfg_.state_identity_pool);
          scfg.dst = servers[0]->addr();
          scfg.base_path = path;
          scfg.rate = cfg_.attack_rate;
          scfg.identity_pool = cfg_.state_identity_pool;
          scfg.churn_per_sec = cfg_.state_churn_per_sec;
          scfg.spoof_sender = cfg_.state_spoof_sender;
          // Distinct forged-AS slice per source (16M identities each) so two
          // bots never collide on a path key — colliding bots would SHARE
          // table entries and understate the state pressure.
          scfg.forged_as_base =
              0x40000000u +
              static_cast<std::uint32_t>(state_exhaust_sources_.size()) *
                  0x1000000u;
          auto src = std::make_unique<StateExhaustSource>(&sim_, h, scfg);
          src->start_at(cfg_.attack_start + rng_.uniform(0.0, 0.5));
          for (FlowId f : src->flow_pool()) {
            monitor_.register_flow(
                f, FlowLabel{FlowClass::kAttack, true, path.key(), path_name});
          }
          state_exhaust_sources_.push_back(std::move(src));
          break;
        }
        case AttackType::kNone:
          break;
      }
    }
  }

  net_.build_routes();
}

void TreeScenario::attach_tracer(telemetry::Tracer* tracer) {
  for (auto& src : tcp_sources_) src->set_tracer(tracer);
  // pid = the node receiving the transmission (the server gateway); tid 0 is
  // the lone bottleneck lane.
  target_link_->set_tracer(tracer, target_link_->to()->id(), 0);
}

void TreeScenario::run() {
  sim_.schedule_at(cfg_.measure_start,
                   [this] { monitor_.snapshot("start", sim_.now()); });
  sim_.schedule_at(std::min(cfg_.measure_end, cfg_.duration),
                   [this] { monitor_.snapshot("end", sim_.now()); });
  sim_.run_until(cfg_.duration);
  // Ensure snapshots exist even for short runs.
  if (sim_.now() >= cfg_.duration && cfg_.measure_end > cfg_.duration) {
    monitor_.snapshot("end", sim_.now());
  }
}

TreeScenario::ClassBandwidth TreeScenario::class_bandwidth() const {
  ClassBandwidth out;
  out.legit_legit_bps =
      monitor_.class_bps(FlowMonitor::is_legit_on_legit_path, "start", "end");
  out.legit_attack_bps =
      monitor_.class_bps(FlowMonitor::is_legit_on_attack_path, "start", "end");
  out.attack_bps = monitor_.class_bps(FlowMonitor::is_attack, "start", "end");
  return out;
}

Cdf TreeScenario::legit_path_flow_cdf() const {
  return monitor_.bandwidth_cdf(FlowMonitor::is_legit_on_legit_path, "start",
                                "end");
}

std::map<std::string, double> TreeScenario::per_path_bps() const {
  return monitor_.path_bps("start", "end");
}

}  // namespace floc
