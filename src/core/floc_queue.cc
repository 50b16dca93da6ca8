#include "core/floc_queue.h"

#include "core/conformance.h"
#include "telemetry/tracing.h"
#include "util/json.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

namespace floc {

namespace {

// Design constants of the mechanism; no scenario, ablation or test varies
// them.
constexpr double kQminFrac = 0.2;          // Q_min as a fraction of the buffer
constexpr double kConformanceBeta = 0.2;   // conformance smoothing (Eq. IV.6)
constexpr double kAttackMtdFactor = 0.5;   // attack if MTD < factor*refMTD
constexpr double kMtdWindowFactor = 2.0;   // MTD window = factor*refMTD
constexpr TimeSec kBackoffRelapse = 3.0;   // relapse window for escalation
constexpr double kBackoffLambdaFactor = 2.0;  // escalation load threshold
constexpr double kJitterDipFloor = 0.5;    // dip factor drawn from [floor, 1)
constexpr double kOverloadSynRate = 50.0;  // per-path SYN budget, 1/s
constexpr double kOverloadSynBurst = 20.0;
constexpr int kSketchRotateTicks = 64;     // control ticks per sketch rotation

// Deterministic signed unit value in [-1, 1) from a key — used for the
// per-aggregate period jitter. Hashing (akey, tick, seed) instead of drawing
// from rng_ keeps the jitter independent of unordered_map iteration order
// and leaves the RNG stream untouched, so jitter=0 runs are bit-identical
// to the unhardened baseline.
double signed_unit_hash(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<double>(x >> 11) * (1.0 / 4503599627370496.0) - 1.0;
}

}  // namespace

FlocQueue::FlocQueue(FlocConfig cfg)
    : cfg_(cfg),
      issuer_(cfg.secret, cfg.n_max),
      rng_(cfg.rng_seed),
      q_min_(static_cast<std::size_t>(kQminFrac *
                                      static_cast<double>(cfg.buffer_packets))),
      q_max_(cfg.buffer_packets),
      relatch_(mix64(cfg.rng_seed ^ 0x5EBA5EBA5EBA5EBAULL)) {
  if (cfg_.use_scalable_filter) {
    filter_ = std::make_unique<ScalableDropFilter>(cfg_.filter);
  }
}

FlocQueue::Mode FlocQueue::mode() const {
  if (q_.size() > q_max_) return Mode::kFlooding;
  if (q_.size() > q_min_) return Mode::kCongested;
  return Mode::kUncongested;
}

const char* FlocQueue::mode_name(Mode m) {
  switch (m) {
    case Mode::kUncongested: return "uncongested";
    case Mode::kCongested: return "congested";
    case Mode::kFlooding: return "flooding";
  }
  return "?";
}

void FlocQueue::attach_telemetry(telemetry::Telemetry* t,
                                 const std::string& prefix) {
  set_journal(t != nullptr ? &t->journal : nullptr);
  if (t == nullptr) return;
  last_mode_ = mode();

  telemetry::MetricRegistry& reg = t->registry;
  reg.gauge_fn(prefix + ".mode", [this] {
    return static_cast<double>(static_cast<int>(mode()));
  });
  reg.gauge_fn(prefix + ".queue.packets",
               [this] { return static_cast<double>(q_.size()); });
  reg.gauge_fn(prefix + ".queue.bytes",
               [this] { return static_cast<double>(q_.bytes()); });
  reg.gauge_fn(prefix + ".queue.q_min",
               [this] { return static_cast<double>(q_min_); });
  reg.gauge_fn(prefix + ".queue.q_max",
               [this] { return static_cast<double>(q_max_); });
  reg.gauge_fn(prefix + ".admissions",
               [this] { return static_cast<double>(admissions()); });
  reg.gauge_fn(prefix + ".dequeues",
               [this] { return static_cast<double>(dequeues_); });
  reg.gauge_fn(prefix + ".drops.total",
               [this] { return static_cast<double>(drops()); });
  register_drop_gauges(reg, prefix);
  reg.gauge_fn(prefix + ".cap.violations",
               [this] { return static_cast<double>(cap_violations_); });
  reg.gauge_fn(prefix + ".cap.reissues",
               [this] { return static_cast<double>(cap_reissues_); });
  reg.gauge_fn(prefix + ".reboots",
               [this] { return static_cast<double>(reboots_); });
  reg.gauge_fn(prefix + ".paths.origins",
               [this] { return static_cast<double>(origins_.size()); });
  reg.gauge_fn(prefix + ".paths.aggregates",
               [this] { return static_cast<double>(aggregates_.size()); });
  reg.gauge_fn(prefix + ".paths.attack", [this] {
    double n = 0.0;
    for (const auto& [k, agg] : aggregates_) n += agg.attack ? 1.0 : 0.0;
    return n;
  });
  reg.gauge_fn(prefix + ".hardening.offenders",
               [this] { return static_cast<double>(offenders_.size()); });
  reg.gauge_fn(prefix + ".hardening.backoff_paths",
               [this] { return static_cast<double>(offense_.size()); });
  reg.gauge_fn(prefix + ".hardening.backoff_max", [this] {
    double m = 1.0;
    for (const auto& [k, po] : offense_)
      m = std::max(m, static_cast<double>(po.multiplier));
    return m;
  });
  register_state_gauges(reg);
}

void FlocQueue::register_metrics(telemetry::MetricRegistry& reg,
                                 const std::string& prefix) const {
  register_queue_gauges(reg, prefix);
  register_state_gauges(reg);
}

void FlocQueue::register_state_gauges(telemetry::MetricRegistry& reg) const {
  // Fixed (prefix-free) names: these are the RSS-proxy series every bench
  // CSV and the storm-alert rules key on, regardless of how the queue was
  // mounted (attach_telemetry's "floc" prefix or a link's register_metrics).
  reg.gauge_fn("floc.origins",
               [this] { return static_cast<double>(origins_.size()); });
  reg.gauge_fn("floc.aggregates",
               [this] { return static_cast<double>(aggregates_.size()); });
  reg.gauge_fn("floc.offense",
               [this] { return static_cast<double>(offense_.size()); });
  reg.gauge_fn("floc.offenders",
               [this] { return static_cast<double>(offenders_.size()); });
  reg.gauge_fn("flow_table.size",
               [this] { return static_cast<double>(flow_record_count()); });
  reg.gauge_fn("floc.state.occupancy", [this] { return state_occupancy(); });
  reg.gauge_fn("floc.state.evictions",
               [this] { return static_cast<double>(state_evictions()); });
  reg.gauge_fn("floc.state.overload",
               [this] { return overloaded_ ? 1.0 : 0.0; });
}

std::size_t FlocQueue::flow_record_count() const {
  std::size_t n = 0;
  for (const auto& [okey, op] : origins_) n += op.flow_count();
  return n;
}

std::size_t FlocQueue::max_path_flow_count() const {
  std::size_t n = 0;
  for (const auto& [okey, op] : origins_) n = std::max(n, op.flow_count());
  return n;
}

double FlocQueue::state_occupancy() const {
  double occ = 0.0;
  const auto frac = [](std::size_t size, const StateBudgetConfig& b) {
    return b.enabled()
               ? static_cast<double>(size) / static_cast<double>(b.capacity)
               : 0.0;
  };
  occ = std::max(occ, frac(origins_.size(), cfg_.origin_budget));
  occ = std::max(occ, frac(offense_.size(), cfg_.offense_budget));
  occ = std::max(occ, frac(offenders_.size(), cfg_.offender_budget));
  if (cfg_.flow_budget.enabled()) {
    occ = std::max(occ, frac(max_path_flow_count(), cfg_.flow_budget));
  }
  return occ;
}

namespace {

// A table's records in key order: incident bundles list state by key, not
// in hash or insertion order (--jobs byte-identity).
template <typename Table>
std::vector<const typename Table::value_type*> by_key(const Table& t) {
  std::vector<const typename Table::value_type*> out;
  out.reserve(t.size());
  for (const auto& kv : t) out.push_back(&kv);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

void dump_budget(json::JsonWriter& w, const char* name,
                 const StateBudgetConfig& b, std::size_t size) {
  w.key(name).begin_object();
  w.field("capacity", static_cast<std::uint64_t>(b.capacity));
  w.field("policy", to_string(b.policy));
  w.field("size", static_cast<std::uint64_t>(size));
  w.end_object();
}

}  // namespace

void FlocQueue::snapshot_state(json::JsonWriter& w, TimeSec now) const {
  w.begin_object();
  w.field("scheme", "floc");

  w.key("mode").begin_object();
  w.field("name", mode_name(mode()));
  w.field("queue_packets", static_cast<std::uint64_t>(q_.size()));
  w.field("queue_bytes", static_cast<std::uint64_t>(q_.bytes()));
  w.field("q_min", static_cast<std::uint64_t>(q_min_));
  w.field("q_max", static_cast<std::uint64_t>(q_max_));
  w.field("control_ticks", static_cast<std::int64_t>(control_ticks_));
  w.field("in_recovery", in_recovery(now));
  w.field("recovery_until", recovery_until_);
  w.field("reboots", reboots_);
  w.field("flushed", flushed_);
  w.field("dequeues", dequeues_);
  w.end_object();

  w.key("drops").begin_object();
  w.field("total", drops());
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const DropReason r = static_cast<DropReason>(i);
    w.field(to_string(r), drops_by_reason(r));
  }
  w.end_object();

  w.key("capabilities").begin_object();
  w.field("enabled", cfg_.enable_capabilities);
  w.field("secret", "redacted");  // provisioned key material, never dumped
  w.field("n_max", issuer_.n_max());
  w.field("rotations", issuer_.rotations());
  w.field("in_grace", issuer_.in_grace(now));
  w.field("violations", cap_violations_);
  w.field("reissues", cap_reissues_);
  w.end_object();

  w.key("aggregates").begin_array();
  for (const auto* kv : by_key(aggregates_)) {
    const auto& [akey, agg] = *kv;
    w.begin_object();
    w.field("path", agg.id.to_string());
    w.field("key", akey);
    w.field("attack", agg.attack);
    w.field("weight", agg.weight);
    w.field("n", agg.last.n);
    w.field("n_estimated", agg.n_estimated);
    w.field("rtt", agg.rtt);
    w.field("c_bps", agg.c);
    w.field("lambda_bps", agg.last.lambda_bps);
    w.field("attack_streak", static_cast<std::int64_t>(agg.attack_streak));
    w.field("calm_streak", static_cast<std::int64_t>(agg.calm_streak));
    w.field("dip_strict", agg.dip_strict);
    w.field("arrivals_interval", agg.last.arrivals);
    w.field("drops_interval", agg.last.drops);
    w.field("token_misses_interval", agg.last.token_misses);
    w.key("params").begin_object();
    w.field("period", agg.params.period);
    w.field("bucket_packets", agg.params.bucket_packets);
    w.field("bucket_packets_incr", agg.params.bucket_packets_incr);
    w.field("peak_window", agg.params.peak_window);
    w.field("ref_mtd", agg.params.ref_mtd);
    w.end_object();
    w.key("bucket").begin_object();
    w.field("configured", agg.bucket.configured());
    w.field("tokens_base", agg.bucket.peek_tokens(now, false));
    w.field("tokens_incr", agg.bucket.peek_tokens(now, true));
    w.field("capacity_base", agg.bucket.capacity_bytes(false));
    w.field("capacity_incr", agg.bucket.capacity_bytes(true));
    w.field("refills", agg.bucket.refills());
    w.end_object();
    std::vector<std::uint64_t> members = agg.members;
    std::sort(members.begin(), members.end());
    w.key("members").begin_array();
    for (const std::uint64_t m : members) w.value(m);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  // Per-origin flow tables can be large under churn; bound the per-path dump
  // and say how much was omitted rather than truncating silently.
  constexpr std::size_t kMaxFlowsPerOrigin = 32;
  const auto origins = by_key(origins_);
  w.key("origins").begin_array();
  for (const auto* kv : origins) {
    const auto& [okey, op] = *kv;
    w.begin_object();
    w.field("path", op.path().to_string());
    w.field("key", okey);
    w.field("aggregate_key", op.aggregate_key);
    w.field("conformance", op.conformance());
    w.field("has_rtt", op.has_rtt());
    w.field("mean_rtt", op.mean_rtt(cfg_.default_rtt));
    w.field("bytes_arrived", op.bytes_arrived);
    w.field("pkts_arrived", op.pkts_arrived);
    w.field("drops", op.drops);
    w.field("token_misses", op.token_misses);
    w.field("flow_count", static_cast<std::uint64_t>(op.flow_count()));
    const auto flows = by_key(op.flows());
    const std::size_t shown = std::min(flows.size(), kMaxFlowsPerOrigin);
    w.field("flows_omitted",
            static_cast<std::uint64_t>(flows.size() - shown));
    w.key("flows").begin_array();
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& [fkey, fr] = *flows[i];
      w.begin_object();
      w.field("acct_key", fkey);
      w.field("first_seen", fr.first_seen);
      w.field("last_seen", fr.last_seen);
      w.field("rtt_sampled", fr.rtt_sampled);
      w.field("rate_bps", fr.rate_bps);
      w.field("bytes_arrived", fr.bytes_arrived);
      w.field("drops_interval", fr.drops);
      w.field("total_drops", fr.total_drops);
      w.field("mtd_window", fr.mtd.window());
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("plan").begin_array();
  for (const auto* kv : origins) {
    const auto& [okey, op] = *kv;
    const std::uint64_t akey = op.planned_key;
    if (akey == 0) continue;  // no plan names this origin yet
    w.begin_object();
    w.field("origin", okey);
    w.field("aggregate", akey);
    w.end_object();
  }
  w.end_array();

  w.key("offense").begin_array();
  for (const auto* kv : by_key(offense_)) {
    const auto& [pkey, po] = *kv;
    w.begin_object();
    w.field("path_key", pkey);
    w.field("multiplier", static_cast<std::int64_t>(po.multiplier));
    w.field("ever_latched", po.ever_latched);
    w.field("attack", po.attack);
    w.field("next_decay", po.next_decay);
    w.field("last_release", po.last_release);
    w.end_object();
  }
  w.end_array();

  w.key("offenders").begin_array();
  for (const auto* kv : by_key(offenders_)) {
    const auto& [src, off] = *kv;
    w.begin_object();
    w.field("src", static_cast<std::uint64_t>(src));
    w.field("strikes", static_cast<std::int64_t>(off.strikes));
    w.field("blacklisted", now < off.blacklisted_until);
    w.field("blacklisted_until", off.blacklisted_until);
    w.field("last_strike", off.last_strike);
    w.end_object();
  }
  w.end_array();

  w.key("state_budget").begin_object();
  w.field("occupancy", state_occupancy());
  w.field("overloaded", overloaded_);
  w.field("overload_entries", overload_entries_);
  w.field("evicted_origins", evict_origins_);
  w.field("evicted_flows", evict_flows_);
  w.field("evicted_offense", evict_offense_);
  w.field("evicted_offenders", evict_offenders_);
  w.field("sketch_marks", relatch_.marks());
  dump_budget(w, "origin_budget", cfg_.origin_budget, origins_.size());
  dump_budget(w, "flow_budget", cfg_.flow_budget, max_path_flow_count());
  dump_budget(w, "offense_budget", cfg_.offense_budget, offense_.size());
  dump_budget(w, "offender_budget", cfg_.offender_budget, offenders_.size());
  w.end_object();

  w.end_object();
}

void FlocQueue::journal_mode(TimeSec now) {
  const Mode m = mode();
  if (m == last_mode_) return;
  char detail[96];
  std::snprintf(detail, sizeof(detail), "%s->%s q=%zu q_min=%zu q_max=%zu",
                mode_name(last_mode_), mode_name(m), q_.size(), q_min_,
                q_max_);
  journal()->record(now, telemetry::EventKind::kModeTransition, "floc", detail,
                    static_cast<std::uint64_t>(static_cast<int>(m)),
                    static_cast<double>(q_.size()));
  last_mode_ = m;
}

void FlocQueue::set_profiler(telemetry::Profiler* prof,
                             const std::string& prefix) {
  prof_enqueue_ = prof != nullptr ? prof->section(prefix + ".enqueue") : nullptr;
  prof_dequeue_ = prof != nullptr ? prof->section(prefix + ".dequeue") : nullptr;
  prof_control_ = prof != nullptr ? prof->section(prefix + ".control") : nullptr;
  prof_cap_verify_ =
      prof != nullptr ? prof->section(prefix + ".cap_verify") : nullptr;
}

void FlocQueue::trace_verdict(const Packet& p, const Aggregate& agg,
                              TimeSec now, const char* verdict) {
  telemetry::Tracer* t = tracer();
  t->annotate(p.span.span, "mode", mode_name(mode()));
  t->annotate(p.span.span, "verdict", verdict);
  if (agg.bucket.configured()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.0f/%.0f",
                  agg.bucket.peek_tokens(now, true),
                  agg.bucket.capacity_bytes(true));
    t->annotate(p.span.span, "tokens", buf);
  }
  t->annotate(p.span.span, "path", p.path.to_string());
}

OriginPathState& FlocQueue::origin_state(const PathId& path, std::uint64_t key,
                                         bool cap_backed) {
  auto it = origins_.find(key);
  if (it == origins_.end()) {
    // Overload mode: NEW per-path state is learned at router-side prefix
    // granularity, so an identity-churning adversary collapses into a
    // handful of coarse entries while established fine-grained paths (found
    // above) keep their granularity. Depth-1 recursion: the coarse path's
    // length equals the prefix.
    //
    // Traffic backed by a VERIFIED capability is exempt: a legitimate path
    // whose origin entry was erased mid-overload (flows stalled and expired)
    // must re-learn fine-grained, or it lands in the attacker-polluted
    // coarse prefix and inherits that aggregate's attack verdict for the
    // rest of the overload episode. Churned identities cannot mint valid
    // capabilities for paths they never completed a handshake on, so the
    // exemption is not an evasion route.
    if (!cap_backed && overloaded_ && cfg_.overload_path_prefix > 0 &&
        path.length() > cfg_.overload_path_prefix) {
      PathId coarse = path;
      coarse.truncate_to(cfg_.overload_path_prefix);
      return origin_state(coarse, coarse.key());
    }
    enforce_origin_budget();
    it = origins_.emplace(key, OriginPathState(path, key, kConformanceBeta))
             .first;
  }
  it->second.touch_stamp = ++touch_seq_;
  return it->second;
}

void FlocQueue::enforce_origin_budget() {
  if (!cfg_.origin_budget.enabled()) return;
  evict_origins_ += enforce_budget(
      origins_, cfg_.origin_budget, evict_salt(), evict_scratch_,
      [this](std::uint64_t, const OriginPathState& op) {
        // kLowestOffenseFirst pins latched / latching paths (and, softly,
        // low-conformance ones): churned innocents go first, so an attacker
        // cannot push its own verdict state out through fresh identities.
        double score = 1.0 - op.conformance();
        const auto ait = aggregates_.find(op.aggregate_key);
        if (ait != aggregates_.end()) {
          if (ait->second.attack) {
            score += 4.0;
          } else if (ait->second.attack_streak > 0) {
            score += 2.0;
          }
        }
        return EvictRank{score, op.touch_stamp};
      },
      [this](std::uint64_t okey, const OriginPathState& op) {
        evict_origin(okey, op);
      });
}

void FlocQueue::evict_origin(std::uint64_t okey, const OriginPathState& op) {
  // 0: a SYN-only origin that no tick has mapped yet (nor planned, since
  // every aggregation run follows a rebuild that maps all origins).
  const std::uint64_t akey = op.aggregate_key != 0 ? op.aggregate_key : okey;
  bool guilty = false;
  const auto ait = aggregates_.find(akey);
  if (ait != aggregates_.end()) {
    Aggregate& agg = ait->second;
    guilty = agg.attack || agg.attack_streak > 0;
    auto& m = agg.members;
    m.erase(std::remove(m.begin(), m.end(), okey), m.end());
    // An aggregate with no remaining member origins is dead weight; its
    // verdict is persisted below (sketch) and in offense_, so dropping it
    // keeps aggregates_ bounded by the origin budget.
    if (m.empty()) aggregates_.erase(ait);
  }
  const auto poit = offense_.find(akey);
  if (poit != offense_.end() && poit->second.attack) guilty = true;
  if (guilty) {
    relatch_.mark(okey);
    if (akey != okey) relatch_.mark(akey);
  }
}

void FlocQueue::enforce_offense_budget() {
  if (!cfg_.offense_budget.enabled()) return;
  evict_offense_ += enforce_budget(
      offense_, cfg_.offense_budget, evict_salt(), evict_scratch_,
      [](std::uint64_t, const PathOffense& po) {
        // Keep escalated and currently-latched verdicts longest.
        return EvictRank{static_cast<double>(po.multiplier) +
                             (po.attack ? 1000.0 : 0.0),
                         po.touch_stamp};
      },
      [this](std::uint64_t akey, const PathOffense& po) {
        if (po.attack) relatch_.mark(akey);
      });
}

void FlocQueue::enforce_offender_budget(TimeSec now) {
  if (!cfg_.offender_budget.enabled()) return;
  evict_offenders_ += enforce_budget(
      offenders_, cfg_.offender_budget, evict_salt(), evict_scratch_,
      [now](HostAddr, const Offender& o) {
        // Actively-sentenced senders rank far above mere strike carriers.
        return EvictRank{static_cast<double>(o.strikes) +
                             (now < o.blacklisted_until ? 1e6 : 0.0),
                         o.touch_stamp};
      },
      [this, now](HostAddr src, const Offender& o) {
        if (now < o.blacklisted_until) {
          relatch_.mark(offender_sketch_key(src));
        }
      });
}

FlocQueue::Aggregate& FlocQueue::aggregate_for(OriginPathState& op) {
  const std::uint64_t akey = op.adopt_plan();
  const auto it = aggregates_.find(akey);
  if (it != aggregates_.end()) return it->second;
  Aggregate& agg =
      add_aggregate(akey, op.path(), 1.0,
                    cfg_.link_bandwidth /
                        static_cast<double>(aggregates_.size() + 1));
  agg.members.push_back(op.key());
  return agg;
}

FlocQueue::Aggregate& FlocQueue::add_aggregate(std::uint64_t akey,
                                               const PathId& id, double weight,
                                               BitsPerSec c) {
  Aggregate agg;
  agg.id = id;
  agg.weight = weight;
  agg.rtt = cfg_.default_rtt * cfg_.rtt_damping;
  agg.c = c;
  agg.last.n = 1.0;
  agg.params = model::compute_params(agg.c, agg.rtt, 1.0, cfg_.pkt_bytes);
  agg.bucket.configure(agg.params, cfg_.pkt_bytes);
  restore_offense(agg, akey);
  return aggregates_.emplace(akey, std::move(agg)).first->second;
}

void FlocQueue::restore_offense(Aggregate& agg, std::uint64_t akey) const {
  if (cfg_.backoff_release) {
    const auto it = offense_.find(akey);
    if (it != offense_.end() && it->second.attack) agg.attack = true;
  }
  // Eviction-safe re-latch: if this path's verdict state was evicted while
  // guilty, the sketch remembers. Seed the streak one short of the latch so
  // a resumed flood re-latches within ONE control interval instead of
  // re-earning the full hysteresis from zero.
  if (!agg.attack && relatch_enabled() && relatch_.test(akey)) {
    agg.attack_streak = std::max(agg.attack_streak, kAttackLatch - 1);
  }
}

void FlocQueue::strike(HostAddr src, TimeSec now) {
  auto it = offenders_.find(src);
  if (it == offenders_.end()) {
    enforce_offender_budget(now);
    it = offenders_.try_emplace(src).first;
    // Eviction-safe re-latch: a sender whose active sentence was evicted
    // re-enters one strike short of the threshold, so its next strike
    // restores the blacklist instead of restarting the count.
    if (cfg_.offender_budget.enabled() &&
        relatch_.test(offender_sketch_key(src))) {
      it->second.strikes = std::max(0, cfg_.blacklist_strikes - 1);
    }
  }
  Offender& o = it->second;
  o.touch_stamp = ++touch_seq_;
  if (now < o.blacklisted_until) return;  // already serving a sentence
  // One strike per control interval: a TCP loss burst (many drops, one
  // interval) counts once; a flood dropping every interval counts every
  // interval and reaches the threshold in strikes*interval seconds.
  if (o.last_strike >= 0.0 &&
      now - o.last_strike < 0.9 * cfg_.control_interval) {
    return;
  }
  o.last_strike = now;
  if (++o.strikes >= cfg_.blacklist_strikes) {
    o.strikes = 0;
    o.blacklisted_until = now + cfg_.blacklist_duration;
    if (journal() != nullptr) {
      char detail[48];
      std::snprintf(detail, sizeof(detail), "src=%u until t=%.3f",
                    static_cast<unsigned>(src), o.blacklisted_until);
      journal()->record(now, telemetry::EventKind::kBlacklistAdd, "floc",
                        detail, src, cfg_.blacklist_duration);
    }
  }
}

std::uint64_t FlocQueue::acct_key(const Packet& p) const {
  if (cfg_.enable_capabilities && cfg_.n_max > 0)
    return issuer_.accounting_key(p);
  return p.flow;
}

TimeSec FlocQueue::measured_flow_mtd(std::uint64_t key, FlowRecord& fr,
                                     const Aggregate& agg, TimeSec now) {
  if (cfg_.use_scalable_filter) {
    // Scalable mode: MTD approximated from the drop filter's over-rate
    // estimate; a flow at u times its fair rate has MTD = ref / u.
    const double u = filter_->over_rate(key, now, agg.params.ref_mtd);
    return agg.params.ref_mtd / std::max(1.0, u);
  }
  fr.mtd.set_window(kMtdWindowFactor * agg.params.ref_mtd);
  return fr.mtd.mtd(now);
}

void FlocQueue::on_drop(const Packet& p, DropReason r, OriginPathState& op,
                        Aggregate& agg, FlowRecord* fr, TimeSec now) {
  if (tracer() != nullptr && p.span.active()) {
    trace_verdict(p, agg, now, "drop");  // DropReason added by the base hook
  }
  op.drops++;
  if (fr != nullptr) {
    fr->drops++;
    fr->total_drops++;
    if (cfg_.use_scalable_filter) {
      filter_->record_drop(acct_key(p), now, agg.params.ref_mtd);
    } else {
      fr->mtd.record_drop(now);
    }
  }
  note_drop(p, r, now);
}

bool FlocQueue::enqueue(PacketRef p, TimeSec now) {
  telemetry::ScopedTimer timer(prof_enqueue_);
  const bool admitted = enqueue_impl(std::move(p), now);
  // Telemetry off: one pointer test. On: detect mode transitions caused by
  // this arrival (queue growth or a control-tick q_max change).
  if (journal() != nullptr) journal_mode(now);
  return admitted;
}

bool FlocQueue::enqueue_impl(PacketRef ref, TimeSec now) {
  if (now >= next_control_) control(now);
  Packet& p = *ref;

  switch (p.type) {
    case PacketType::kSyn: {
      const std::uint64_t pkey = p.path.key();
      OriginPathState& op = origin_state(p.path, pkey);
      // Overload tightening, handshake side: per-origin-path SYN budget.
      // The gate sits BEFORE the flow touch so a shed SYN plants no flow
      // record — a handshake storm can neither fill the flow table nor pin
      // its occupancy (and with it the overload latch) at 1.0.
      if (overloaded_ &&
          !op.syn_gate_admit(now, kOverloadSynRate, kOverloadSynBurst)) {
        note_drop(p, DropReason::kOverload, now);
        return false;
      }
      FlowRecord& fr =
          op.touch_flow(acct_key(p), now, &cfg_.flow_budget,
                        mix64(cfg_.rng_seed) ^ touch_seq_, &evict_flows_,
                        &evict_scratch_);
      fr.syn_time = now;
      fr.rtt_sampled = false;
      if (cfg_.enable_capabilities) {
        const auto caps = issuer_.issue(p.src, p.dst, pkey);
        p.cap0 = caps.cap0;
        p.cap1 = caps.cap1;
      }
      if (q_.size() >= cfg_.buffer_packets) {
        note_drop(p, DropReason::kQueueFull, now);
        return false;
      }
      break;  // admit
    }
    case PacketType::kSynAck:
    case PacketType::kAck: {
      if (q_.size() >= cfg_.buffer_packets) {
        note_drop(p, DropReason::kQueueFull, now);
        return false;
      }
      break;  // admit transit control traffic
    }
    case PacketType::kData: {
      if (!admit_data(p, p.path.key(), now)) return false;
      break;
    }
  }

  q_.push_back(std::move(ref));
  note_admit();
  return true;
}

bool FlocQueue::admit_data(Packet& p, std::uint64_t pkey, TimeSec now) {
  // A carried capability is verified once: up front in overload mode, where
  // origin_state's coarsening rule needs the verdict (a valid capability
  // proves a completed handshake), else at the capability check below.
  const bool carries_cap = cfg_.enable_capabilities && p.cap0 != 0;
  const auto verify = [&] {
    telemetry::ScopedTimer timer(prof_cap_verify_);
    return issuer_.verify_at(p, pkey, now);
  };
  CapabilityIssuer::VerifyResult vr = CapabilityIssuer::VerifyResult::kFail;
  if (overloaded_ && carries_cap) vr = verify();
  OriginPathState& op =
      origin_state(p.path, pkey, vr == CapabilityIssuer::VerifyResult::kOk);
  Aggregate& agg = aggregate_for(op);
  const std::uint64_t key = acct_key(p);
  FlowRecord& fr =
      op.touch_flow(key, now, &cfg_.flow_budget,
                    mix64(cfg_.rng_seed) ^ touch_seq_, &evict_flows_,
                    &evict_scratch_);

  // RTT sample: capability issue (SYN) to first use (Section V-A).
  if (!fr.rtt_sampled && fr.syn_time >= 0.0) {
    const TimeSec sample = now - fr.syn_time;
    if (sample > 0.0) op.add_rtt_sample(sample);
    fr.rtt_sampled = true;
  }

  op.bytes_arrived += p.size_bytes;
  op.pkts_arrived++;
  fr.bytes_arrived += p.size_bytes;

  // Offender blacklist (hardening): a sentenced sender is dropped on sight.
  // The check sits AFTER arrival accounting on purpose: the blacklisted
  // traffic keeps counting toward the path's offered load, so the path
  // stays latched and a duty-cycling sender cannot launder the release by
  // getting itself blacklisted.
  if (cfg_.enable_blacklist) {
    const auto bit = offenders_.find(p.src);
    if (bit != offenders_.end() && now < bit->second.blacklisted_until) {
      on_drop(p, DropReason::kBlacklist, op, agg, &fr, now);
      return false;
    }
  }

  // Overload mode tightens admission to capability-carrying traffic: state
  // pressure means identities are churning faster than they can complete
  // handshakes, and data without a capability is exactly the traffic class
  // doing the churning. Established legitimate flows echo the capability
  // stamped on their SYN-ACK and pass untouched.
  if (overloaded_ && cfg_.enable_capabilities && p.cap0 == 0) {
    on_drop(p, DropReason::kOverload, op, agg, &fr, now);
    return false;
  }

  // Capability verification: forged identifiers are rejected outright —
  // except inside a key-rotation grace window, where a miss is re-stamped
  // under the new secret instead (dropping would cut off every established
  // legitimate flow whose source still echoes pre-rotation capabilities).
  if (carries_cap) {
    if (!overloaded_) vr = verify();
    const bool traced = tracer() != nullptr && p.span.active();
    if (vr != CapabilityIssuer::VerifyResult::kOk) {
      if (issuer_.in_grace(now)) {
        const auto caps = issuer_.issue(p.src, p.dst, pkey);
        p.cap0 = caps.cap0;
        p.cap1 = caps.cap1;
        ++cap_reissues_;
        if (traced) tracer()->annotate(p.span.span, "cap", "reissued");
        if (journal() != nullptr) {
          journal()->record(now, telemetry::EventKind::kCapReissue, "floc",
                            std::string(), p.flow, 0.0);
        }
      } else {
        ++cap_violations_;
        if (traced) trace_verdict(p, agg, now, "drop");
        note_drop(p, DropReason::kCapability, now);
        return false;
      }
    } else if (traced) {
      tracer()->annotate(p.span.span, "cap", "ok");
    }
  }

  if (q_.size() >= cfg_.buffer_packets) {
    on_drop(p, DropReason::kQueueFull, op, agg, &fr, now);
    return false;
  }

  const std::size_t q_len = q_.size();
  bool flooding = q_len > q_max_;
  // An identified attack path stays under token control regardless of the
  // queue: its fixed bucket limits the path's traffic even when the queue
  // is momentarily empty (Fig. 6(b): "the fixed token-bucket sizes limit
  // the traffic on these paths").
  bool congested = q_len > q_min_ || agg.attack;
  if (!congested) {
    // Early congested-mode entry for over-subscribed paths:
    // Q > Q_min * min{1, C_Si/lambda_Si} (Section V-A, uncongested mode).
    const double ratio =
        agg.last.lambda_bps > 0.0 ? std::min(1.0, agg.c / agg.last.lambda_bps)
                                  : 1.0;
    congested = static_cast<double>(q_len) >
                static_cast<double>(q_min_) * ratio;
    if (!congested) {
      // Uncongested: serviced regardless of token availability — but the
      // token state is still accounted so attack-path identification keeps
      // its signal through idle-queue periods.
      if (!agg.bucket.try_consume(p.size_bytes, now,
                                  !cfg_.force_base_bucket)) {
        op.token_misses++;
      }
      if (tracer() != nullptr && p.span.active()) {
        trace_verdict(p, agg, now, "admit");
      }
      return true;
    }
  }

  // Preferential drop for identified attack flows (Eq. IV.5): only applied
  // on attack paths, so legitimate-path flows are never penalized by it.
  // Within an attack path, only flows sending ABOVE their fair share are
  // candidates (the policy targets flows with over-rate alpha > 1); a
  // misidentified flow that reduces its rate immediately regains service.
  if (cfg_.enable_preferential_drop && agg.attack) {
    const double fair_bps = agg.c / std::max(agg.last.n, 1.0);
    if (fr.rate_bps > fair_bps) {
      const TimeSec mtd = measured_flow_mtd(key, fr, agg, now);
      const double p_serviced =
          std::min(1.0, mtd / std::max(agg.params.ref_mtd, 1e-9));
      if (!rng_.chance(p_serviced)) {
        on_drop(p, DropReason::kPreferential, op, agg, &fr, now);
        // Strike only flows the paper's MTD test identifies as attacks:
        // a TCP flow transiently over its fair share backs off on loss and
        // keeps a large MTD, so it never accumulates strikes.
        if (cfg_.enable_blacklist &&
            is_attack_mtd(mtd, agg.params.ref_mtd, kAttackMtdFactor)) {
          strike(p.src, now);
        }
        return false;
      }
    }
  }

  // Token-bucket admission. Over-subscribed paths (lambda > C — the attack
  // paths whose token control activated early) are held to their bucket
  // strictly, with the base size N once identified as attack paths: this is
  // what confines CBR/Shrew floods to their path allocation (Fig. 6(b)
  // discussion). The enlarged bucket N' applies in congested mode, the base
  // bucket N in flooding mode (Section V-A).
  // Strict-audit (dip) ticks measure against the base bucket N, like
  // flooding mode: the audit asks "does this path fit its allocation", not
  // the congested-mode benefit-of-the-doubt N'.
  const bool use_increased =
      !flooding && !agg.attack && !agg.dip_strict && !cfg_.force_base_bucket;
  bool token_ok;
  if (agg.attack) {
    // Identified attack path: a flow's access to the path's tokens is
    // filtered to its fair rate — Eq. IV.5's I(f) ("a token is available to
    // flow f") realized probabilistically so an aggressive flow cannot
    // monopolize the bucket against conformant flows, while conformant
    // (rate <= fair) flows pass unfiltered.
    const double fair_bps = agg.c / std::max(agg.last.n, 1.0);
    const bool fair_ok =
        fr.rate_bps <= fair_bps ||
        rng_.chance(fair_bps / std::max(fr.rate_bps, 1e-9));
    token_ok =
        fair_ok && agg.bucket.try_consume(p.size_bytes, now, use_increased);
  } else {
    token_ok = agg.bucket.try_consume(p.size_bytes, now, use_increased);
  }
  if (token_ok) {
    if (tracer() != nullptr && p.span.active()) {
      trace_verdict(p, agg, now, "admit-token");
    }
    return true;
  }

  // Post-reboot relearn window: parameters and attack flags are cold, so the
  // usual mode-derived strictness is unreliable. The configured policy picks
  // the failure direction — open (neutral drops only, below) or closed
  // (strict token drops) — until the state is warm again.
  bool strict = flooding || agg.attack || agg.dip_strict;
  if (now < recovery_until_) {
    strict = cfg_.recovery_policy == RecoveryPolicy::kFailClosed;
  }
  if (strict) {
    on_drop(p, DropReason::kToken, op, agg, &fr, now);
    // Strikes only for senders over their fair share on a latched path
    // whose MTD identifies them as unresponsive (attack) flows: conformant
    // flows sharing the path back off on loss and never accumulate strikes.
    if (cfg_.enable_blacklist && agg.attack &&
        fr.rate_bps > agg.c / std::max(agg.last.n, 1.0) &&
        is_attack_mtd(measured_flow_mtd(key, fr, agg, now),
                      agg.params.ref_mtd, kAttackMtdFactor)) {
      strike(p.src, now);
    }
    return false;
  }
  // Congested mode, path within its allocation but momentarily out of
  // tokens (the parameters are deliberately under-estimated): neutral
  // random-threshold drop. A queue threshold is drawn uniformly from
  // [Q_min, Q_max]; the packet is dropped only if the queue exceeds it
  // (early-congestion-notification analogue, Section V-A).
  const double q_th = rng_.uniform(static_cast<double>(q_min_),
                                   static_cast<double>(q_max_));
  if (static_cast<double>(q_len) > q_th) {
    on_drop(p, DropReason::kRandomEarly, op, agg, &fr, now);
    return false;
  }
  op.token_misses++;  // shortfall admitted neutrally: still an MTD signal
  if (tracer() != nullptr && p.span.active()) {
    trace_verdict(p, agg, now, "admit-neutral");
  }
  return true;
}

PacketRef FlocQueue::dequeue(TimeSec now) {
  telemetry::ScopedTimer timer(prof_dequeue_);
  if (q_.empty()) return {};
  PacketRef p = q_.pop_front();
  ++dequeues_;
  if (journal() != nullptr) journal_mode(now);
  return p;
}

void FlocQueue::reboot(TimeSec now, bool preserve_queue) {
  origins_.clear();
  aggregates_.clear();
  if (filter_) filter_ = std::make_unique<ScalableDropFilter>(cfg_.filter);
  if (!preserve_queue) {
    flushed_ += q_.size();
    if (tracer() != nullptr) {
      for (const Packet& p : q_) {
        if (p.span.active()) {
          tracer()->end_dropped(p.span.span, now, kSpanStatusFlushed,
                                "flushed");
        }
      }
    }
    q_.clear();
  }
  control_ticks_ = 0;
  next_control_ = now;  // re-estimate parameters on the next arrival
  recovery_until_ =
      now + cfg_.recovery_intervals * cfg_.control_interval;
  ++reboots_;
  if (journal() != nullptr) {
    char detail[80];
    std::snprintf(detail, sizeof(detail),
                  "%s queue, recovery until t=%.3f",
                  preserve_queue ? "preserved" : "flushed", recovery_until_);
    journal()->record(now, telemetry::EventKind::kReboot, "floc", detail,
                      reboots_, static_cast<double>(flushed_));
    recovery_pending_journal_ = true;
    journal_mode(now);  // a queue wipe can leave congested/flooding mode
  }
}

void FlocQueue::rotate_secret(std::uint64_t new_secret, TimeSec now) {
  issuer_.rotate(new_secret, now, cfg_.control_interval);
  if (journal() != nullptr) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "grace until t=%.3f",
                  now + cfg_.control_interval);
    journal()->record(now, telemetry::EventKind::kKeyRotation, "floc", detail);
  }
}

void FlocQueue::control(TimeSec now) {
  telemetry::ScopedTimer timer(prof_control_);
  const TimeSec interval = cfg_.control_interval;
  // Hardening: jitter the measurement boundary so an adversary cannot phase
  // its pulses against a predictable control clock. Gated so that the
  // default (jitter=0) consumes no RNG values at all.
  if (cfg_.interval_jitter > 0.0) {
    next_control_ =
        now + interval * (1.0 + rng_.uniform(-cfg_.interval_jitter,
                                             cfg_.interval_jitter));
  } else {
    next_control_ = now + interval;
  }
  ++control_ticks_;

  if (journal() != nullptr && recovery_pending_journal_ &&
      now >= recovery_until_) {
    recovery_pending_journal_ = false;
    journal()->record(now, telemetry::EventKind::kRecoveryEnd, "floc",
                      cfg_.recovery_policy == RecoveryPolicy::kFailOpen
                          ? "fail-open window over"
                          : "fail-closed window over",
                      reboots_);
  }

  // --- Expire idle flows; drop empty origin paths ------------------------
  for (auto it = origins_.begin(); it != origins_.end();) {
    it->second.expire_flows(now, cfg_.flow_timeout);
    if (it->second.flow_count() == 0) {
      it = origins_.erase(it);
    } else {
      ++it;
    }
  }

  // --- Rebuild aggregates from the current plan --------------------------
  // Every origin adopts its planned aggregate. A surviving aggregate's map
  // node moves into the new map, keeping token state and verdict, and starts
  // a new interval; aggregates no origin maps to are dropped. Iterating an
  // std::unordered_map does NOT follow first-use order: the order of this
  // loop and of every aggregate loop below comes from the standard library's
  // bucket layout, and reaches the floating-point sums total_weight and
  // q_max_extra. ROADMAP item 7(a) fixes that order before these maps move
  // to DenseTable.
  std::unordered_map<std::uint64_t, Aggregate> fresh;
  for (auto& [okey, op] : origins_) {
    const std::uint64_t akey = op.adopt_plan();
    auto fit = fresh.find(akey);
    if (fit == fresh.end()) {
      auto node = aggregates_.extract(akey);
      if (node.empty()) {
        Aggregate agg;
        agg.id = op.path();
        restore_offense(agg, akey);  // re-latch relearned offender paths
        fit = fresh.emplace(akey, std::move(agg)).first;
      } else {
        node.mapped().last = {};
        node.mapped().members.clear();
        fit = fresh.insert(std::move(node)).position;
      }
    }
    Aggregate& agg = fit->second;
    agg.members.push_back(okey);
    agg.last.n += static_cast<double>(op.flow_count());
    agg.last.lambda_bps += op.bytes_arrived * kBitsPerByte / interval;
    agg.last.drops += op.drops;
    // Aggregate MTD signal: realized drops of the path plus token
    // shortfalls that the neutral/uncongested policies admitted anyway.
    agg.last.token_misses += op.token_misses + op.drops;
    agg.last.arrivals += op.pkts_arrived;
  }
  aggregates_ = std::move(fresh);

  // --- Per-aggregate parameters, attack-path detection --------------------
  double total_weight = 0.0;
  for (auto& [k, agg] : aggregates_) total_weight += agg.weight;
  if (total_weight <= 0.0) total_weight = 1.0;

  double q_max_extra = 0.0;
  for (auto& [akey, agg] : aggregates_) {
    // RTT: flow-weighted mean over member origins, damped (Section V-A).
    double rtt_sum = 0.0, rtt_w = 0.0;
    for (std::uint64_t okey : agg.members) {
      const auto& op = origins_.at(okey);
      const double w = std::max<double>(1.0, op.flow_count());
      rtt_sum += op.mean_rtt(cfg_.default_rtt) * w;
      rtt_w += w;
    }
    agg.rtt = (rtt_w > 0.0 ? rtt_sum / rtt_w : cfg_.default_rtt) *
              cfg_.rtt_damping;
    agg.c = cfg_.link_bandwidth * agg.weight / total_weight;
    if (cfg_.estimate_flow_count) {
      // Section V-B.1: n from the aggregate drop rate (inverting the Reno
      // drop model), smoothed for stability. Works only while the path has
      // drops; otherwise the previous estimate (or exact count) persists.
      const double drop_rate = static_cast<double>(agg.last.drops) / interval;
      if (drop_rate > 0.0) {
        const double n_inst = model::estimate_flow_count(
            agg.c, agg.rtt, drop_rate, cfg_.pkt_bytes);
        agg.n_estimated = agg.n_estimated > 0.0
                              ? 0.7 * agg.n_estimated + 0.3 * n_inst
                              : n_inst;
      }
      if (agg.n_estimated > 0.0) agg.last.n = std::max(1.0, agg.n_estimated);
    }
    agg.params = model::compute_params(agg.c, agg.rtt,
                                       std::max(agg.last.n, 1.0),
                                       cfg_.pkt_bytes);
    // Detection thresholds are taken from the UN-jittered parameters:
    // jitter exists to move the attacker-visible refill boundaries, not to
    // randomize the latch condition — a scaled period would drag marginal
    // legitimate paths over (or under) the detection line at random.
    const TimeSec detect_period = agg.params.period;
    if (cfg_.interval_jitter > 0.0) {
      // Hardening: scatter each aggregate's effective token period around
      // T_Si, re-drawn every tick, so drop-spacing measurements never
      // converge. Bucket sizes scale with the period: the long-run rate
      // (bucket/period) is exactly preserved, only the boundaries move.
      // Hashed, not drawn from rng_: independent of map iteration order.
      const double f =
          1.0 + cfg_.interval_jitter *
                    signed_unit_hash(akey ^
                                     static_cast<std::uint64_t>(control_ticks_) *
                                         0x9E3779B97F4A7C15ULL ^
                                     cfg_.rng_seed);
      agg.params.period *= f;
      agg.params.bucket_packets *= f;
      agg.params.bucket_packets_incr *= f;
    }
    agg.dip_strict = false;
    if (cfg_.jitter_dip_prob > 0.0) {
      // Feedback poisoning (see FlocConfig): an occasional one-tick bucket
      // dip with the period untouched, so the tick's admitted volume
      // genuinely drops at a time no admission-edge prober can predict. On
      // paths under probation (any offense record — they latched at least
      // once) the dip tick also enforces tokens strictly: the shortfall
      // becomes real losses instead of the congested-mode neutral
      // fallback, which is the signal a loss-averse closed-loop attacker
      // cannot ignore. Clean paths (a flash crowd never latches) are never
      // audited strictly and only ever see the milder bucket dip.
      const std::uint64_t tick_word =
          static_cast<std::uint64_t>(control_ticks_) * 0x9E3779B97F4A7C15ULL ^
          cfg_.rng_seed;
      const double u = 0.5 * (1.0 + signed_unit_hash(
                                        akey ^ tick_word ^
                                        0xD1D0D1D0D1D0D1D0ULL));
      if (u < cfg_.jitter_dip_prob) {
        const double v = 0.5 * (1.0 + signed_unit_hash(
                                          akey ^ tick_word ^
                                          0x5CA1AB1E5CA1AB1EULL));
        const double f = kJitterDipFloor + (1.0 - kJitterDipFloor) * v;
        agg.params.bucket_packets *= f;
        agg.params.bucket_packets_incr *= f;
        agg.dip_strict = offense_.find(akey) != offense_.end();
      }
    }
    agg.bucket.configure(agg.params, cfg_.pkt_bytes);

    // Attack path (Section IV-B.1): aggregate MTD below the token period
    // while the offered load exceeds the allocation plus the reference drop
    // rate — lambda_Si > C_Si + 1/T_Si, all in packets per second. The MTD
    // here is measured over token-shortfall events (requests the bucket
    // could not cover): under the paper's strict admission these ARE the
    // drops; counting shortfalls keeps the signal causal even while the
    // neutral congested-mode policy admits some token-less packets.
    const TimeSec agg_mtd =
        agg.last.token_misses > 0
            ? interval / static_cast<double>(agg.last.token_misses)
            : std::numeric_limits<TimeSec>::infinity();
    const double c_pkts = agg.c / (kBitsPerByte * cfg_.pkt_bytes);
    const double lambda_pkts =
        agg.last.lambda_bps / (kBitsPerByte * cfg_.pkt_bytes);
    const bool condition = agg_mtd < detect_period &&
                           lambda_pkts > c_pkts + 1.0 / detect_period;
    // Hysteresis: a flood holds the condition every interval; a legitimate
    // path crossing it transiently (TCP probing) does not latch. With
    // backoff_release, a path that has latched before must stay calm
    // `kAttackRelease * multiplier` intervals — each re-latch doubles the
    // multiplier, so duty-cycled floods face geometrically growing quiet
    // requirements instead of a fixed, learnable one.
    const bool was_attack = agg.attack;
    int release_required = kAttackRelease;
    if (cfg_.backoff_release) {
      const auto poit = offense_.find(akey);
      if (poit != offense_.end()) release_required *= poit->second.multiplier;
    }
    if (condition) {
      agg.attack_streak++;
      agg.calm_streak = 0;
      if (agg.attack_streak >= kAttackLatch) agg.attack = true;
    } else {
      agg.calm_streak++;
      agg.attack_streak = 0;
      if (agg.calm_streak >= release_required) agg.attack = false;
    }
    if (agg.attack != was_attack) {
      if (journal() != nullptr) {
        journal()->record(now,
                          agg.attack ? telemetry::EventKind::kAttackLatch
                                     : telemetry::EventKind::kAttackRelease,
                          "floc", agg.id.to_string(), akey, agg_mtd);
      }
      if (cfg_.backoff_release) {
        auto poit = offense_.find(akey);
        if (poit == offense_.end()) {
          // Evicts from offense_ only; `agg` lives in aggregates_.
          enforce_offense_budget();
          poit = offense_.try_emplace(akey).first;
        }
        PathOffense& po = poit->second;
        po.touch_stamp = ++touch_seq_;
        po.attack = agg.attack;
        po.next_decay = now + cfg_.backoff_decay;
        if (agg.attack) {
          // Escalate only on a fast relapse: re-latching within
          // kBackoffRelapse of the previous release is the signature of an
          // attacker timing its quiet phase to the release hysteresis. A
          // legitimate path whose marginal latches are spread out keeps
          // multiplier 1 no matter how many times it latches.
          if (po.ever_latched && po.multiplier < cfg_.backoff_cap &&
              po.last_release >= 0.0 &&
              now - po.last_release <= kBackoffRelapse &&
              lambda_pkts > kBackoffLambdaFactor *
                                (c_pkts + 1.0 / detect_period)) {
            po.multiplier = std::min(cfg_.backoff_cap, po.multiplier * 2);
            if (journal() != nullptr) {
              journal()->record(now, telemetry::EventKind::kBackoffEscalate,
                                "floc", agg.id.to_string(), akey,
                                static_cast<double>(po.multiplier));
            }
          }
          po.ever_latched = true;
        } else {
          po.last_release = now;
        }
      }
    }

    q_max_extra +=
        std::sqrt(std::max(agg.last.n, 1.0)) * agg.params.peak_window;
  }
  // Q_max = Q_min + sum sqrt(n_i)*W_i, floored at 10% of the buffer above
  // Q_min so a freshly started (or idle) queue is never stuck with
  // Q_max == Q_min, and capped at the physical buffer.
  const std::size_t headroom_floor =
      std::max<std::size_t>(1, cfg_.buffer_packets / 10);
  q_max_ = std::min(
      cfg_.buffer_packets,
      q_min_ + std::max(headroom_floor, static_cast<std::size_t>(q_max_extra)));

  // --- Conformance update per origin path (Eq. IV.6) ----------------------
  for (auto& [okey, op] : origins_) {
    const Aggregate& agg = aggregates_.at(op.aggregate_key);
    const double fair_bps = agg.c / std::max(agg.last.n, 1.0);
    std::size_t n_attack = 0;
    for (auto& [fkey, fr] : op.flows()) {
      // Refresh the smoothed per-flow arrival-rate estimate.
      const double inst = fr.bytes_arrived * kBitsPerByte / interval;
      fr.rate_bps = fr.rate_bps > 0.0 ? 0.5 * fr.rate_bps + 0.5 * inst : inst;
      if (fr.rate_bps <= fair_bps) continue;  // within fair share: legit
      if (is_attack_mtd(measured_flow_mtd(fkey, fr, agg, now),
                        agg.params.ref_mtd, kAttackMtdFactor)) {
        ++n_attack;
      }
    }
    op.update_conformance(legitimate_fraction(n_attack, op.flow_count()));
  }

  // --- Hardening housekeeping ---------------------------------------------
  if (cfg_.backoff_release) {
    // A path that stays unlatched earns one multiplier halving per
    // backoff_decay window; fully decayed records are forgotten (the next
    // latch is treated as a first offense again).
    for (auto it = offense_.begin(); it != offense_.end();) {
      PathOffense& po = it->second;
      if (!po.attack && now >= po.next_decay) {
        if (po.multiplier > 1) {
          po.multiplier /= 2;
          po.next_decay = now + cfg_.backoff_decay;
          ++it;
        } else {
          it = offense_.erase(it);
        }
      } else {
        ++it;
      }
    }
  }
  if (cfg_.enable_blacklist) {
    for (auto it = offenders_.begin(); it != offenders_.end();) {
      Offender& o = it->second;
      if (o.blacklisted_until >= 0.0) {
        if (now >= o.blacklisted_until) {
          if (journal() != nullptr) {
            char detail[32];
            std::snprintf(detail, sizeof(detail), "src=%u",
                          static_cast<unsigned>(it->first));
            journal()->record(now, telemetry::EventKind::kBlacklistExpire,
                              "floc", detail, it->first);
          }
          it = offenders_.erase(it);
        } else {
          ++it;
        }
      } else {
        // Un-sentenced strikes halve every tick the sender goes without a
        // new strike, so transient loss episodes of legitimate flows wash
        // out while a persistent flood keeps accumulating.
        if (now - o.last_strike >= cfg_.control_interval) o.strikes /= 2;
        if (o.strikes == 0) {
          it = offenders_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // --- Aggregation run (Section IV-C) -------------------------------------
  if (cfg_.enable_aggregation &&
      control_ticks_ % std::max(1, cfg_.aggregation_every) == 0) {
    run_aggregation(now);
  }

  // --- Reset interval counters --------------------------------------------
  for (auto& [okey, op] : origins_) {
    op.bytes_arrived = 0.0;
    op.pkts_arrived = 0;
    op.drops = 0;
    op.token_misses = 0;
    for (auto& [fkey, fr] : op.flows()) {
      fr.bytes_arrived = 0.0;
      fr.drops = 0;
    }
  }
  // Aggregate sums (`last`) are recomputed from origin sums at the next
  // rebuild; until then last.lambda_bps is the "last measured offered load"
  // of the early congested-mode test.

  // --- Bounded-state housekeeping ------------------------------------------
  if (cfg_.enable_overload_mode) update_overload(now);
  if (relatch_enabled() && control_ticks_ % kSketchRotateTicks == 0) {
    // Age the re-latch sketch two rotation windows after the mark: long
    // enough for any realistic resume, short enough that a false positive
    // (hash collision with an innocent key) cannot haunt a path forever.
    relatch_.rotate();
  }
  if (journal() != nullptr && state_evictions() != journal_evict_mark_) {
    // Batched per control tick — per-victim events would let an eviction
    // storm flood the journal ring.
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "origins=%llu flows=%llu offense=%llu offenders=%llu",
                  static_cast<unsigned long long>(evict_origins_),
                  static_cast<unsigned long long>(evict_flows_),
                  static_cast<unsigned long long>(evict_offense_),
                  static_cast<unsigned long long>(evict_offenders_));
    journal()->record(now, telemetry::EventKind::kStateEvict, "floc", detail,
                      state_evictions() - journal_evict_mark_,
                      state_occupancy());
    journal_evict_mark_ = state_evictions();
  }
}

void FlocQueue::update_overload(TimeSec now) {
  const double occ = state_occupancy();
  if (!overloaded_ && occ >= cfg_.overload_enter) {
    overloaded_ = true;
    ++overload_entries_;
    if (journal() != nullptr) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "occupancy=%.3f origins=%zu offense=%zu offenders=%zu",
                    occ, origins_.size(), offense_.size(), offenders_.size());
      journal()->record(now, telemetry::EventKind::kOverloadEnter, "floc",
                        detail, overload_entries_, occ);
    }
  } else if (overloaded_ && occ <= cfg_.overload_exit) {
    overloaded_ = false;
    if (journal() != nullptr) {
      char detail[48];
      std::snprintf(detail, sizeof(detail), "occupancy=%.3f", occ);
      journal()->record(now, telemetry::EventKind::kOverloadExit, "floc",
                        detail, overload_entries_, occ);
    }
  }
}

void FlocQueue::run_aggregation(TimeSec) {
  std::vector<PathSnapshot> snaps;
  snaps.reserve(origins_.size());
  for (const auto& [okey, op] : origins_) {
    const auto ait = aggregates_.find(op.aggregate_key);
    const bool suspect =
        ait != aggregates_.end() &&
        (ait->second.attack || ait->second.attack_streak > 0);
    snaps.push_back(PathSnapshot{op.path(), op.conformance(),
                                 static_cast<double>(op.flow_count()),
                                 suspect});
  }
  AggregationConfig acfg;
  acfg.s_max = cfg_.s_max;
  acfg.e_th = cfg_.e_th;
  acfg.legit_max_increase = cfg_.legit_max_increase;
  Aggregator aggregator(acfg);
  const AggregationPlan plan = aggregator.plan(snaps);

  // The plan names every origin (each input path is mapped). Origins adopt
  // their planned aggregate on their next data packet or control tick.
  std::unordered_map<std::uint64_t, const AggregationPlan::Entry*> by_agg;
  for (const auto& [okey, entry] : plan.mapping) {
    const std::uint64_t akey = entry.group_key();
    origins_.at(okey).planned_key = akey;
    by_agg[akey] = &entry;
  }
  // Seed / update aggregate identities and weights so the next rebuild (and
  // on-demand lookups until then) see the new plan.
  for (const auto& [akey, entry] : by_agg) {
    auto it = aggregates_.find(akey);
    if (it == aggregates_.end()) {
      add_aggregate(akey, entry->aggregate, entry->share_weight,
                    cfg_.link_bandwidth /
                        static_cast<double>(
                            std::max<std::size_t>(1, aggregates_.size())));
    } else {
      it->second.weight = entry->share_weight;
    }
  }
}

bool FlocQueue::audit(TimeSec now, std::string* why) const {
  const auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // (1) Byte accounting matches the queued packets.
  std::size_t bytes = 0;
  for (const Packet& p : q_) bytes += static_cast<std::size_t>(p.size_bytes);
  if (bytes != q_.bytes()) {
    return fail("queued bytes " + std::to_string(bytes) +
                " != accounted bytes " + std::to_string(q_.bytes()));
  }
  if (q_.size() > cfg_.buffer_packets) {
    return fail("queue length " + std::to_string(q_.size()) +
                " exceeds buffer " + std::to_string(cfg_.buffer_packets));
  }
  // (2) Token counts within [0, N'] for every aggregate.
  for (const auto& [akey, agg] : aggregates_) {
    if (!agg.bucket.configured()) continue;
    const double cap = agg.bucket.capacity_bytes(true);
    const double t = agg.bucket.peek_tokens(now, true);
    if (t < -1e-6 || t > cap + 1e-6) {
      return fail("aggregate " + agg.id.to_string() + " tokens " +
                  std::to_string(t) + " outside [0, " + std::to_string(cap) +
                  "]");
    }
  }
  // (3) Packet conservation: every admission was serviced, lost to a reboot
  // queue wipe, or is still queued.
  if (admissions() != dequeues_ + flushed_ + q_.size()) {
    return fail("admissions " + std::to_string(admissions()) +
                " != dequeues " + std::to_string(dequeues_) + " + flushed " +
                std::to_string(flushed_) + " + queued " +
                std::to_string(q_.size()));
  }
  // (4) State budgets hold: enforced-before-insert means a table can never
  // exceed its capacity, at any instant. Aggregates are bounded derivatively
  // (rebuilt from live origins each tick, erased when their last member
  // evicts), so they can exceed the origin capacity only by the origins
  // admitted since the last rebuild — 2x is a safe ceiling.
  if (cfg_.origin_budget.enabled()) {
    if (origins_.size() > cfg_.origin_budget.capacity) {
      return fail("origins " + std::to_string(origins_.size()) +
                  " exceed budget " +
                  std::to_string(cfg_.origin_budget.capacity));
    }
    if (aggregates_.size() > 2 * cfg_.origin_budget.capacity) {
      return fail("aggregates " + std::to_string(aggregates_.size()) +
                  " exceed 2x origin budget " +
                  std::to_string(2 * cfg_.origin_budget.capacity));
    }
  }
  if (cfg_.flow_budget.enabled() &&
      max_path_flow_count() > cfg_.flow_budget.capacity) {
    return fail("per-path flows " + std::to_string(max_path_flow_count()) +
                " exceed budget " + std::to_string(cfg_.flow_budget.capacity));
  }
  if (cfg_.offense_budget.enabled() &&
      offense_.size() > cfg_.offense_budget.capacity) {
    return fail("offense records " + std::to_string(offense_.size()) +
                " exceed budget " +
                std::to_string(cfg_.offense_budget.capacity));
  }
  if (cfg_.offender_budget.enabled() &&
      offenders_.size() > cfg_.offender_budget.capacity) {
    return fail("offender records " + std::to_string(offenders_.size()) +
                " exceed budget " +
                std::to_string(cfg_.offender_budget.capacity));
  }
  return true;
}

// --- Introspection ---------------------------------------------------------

bool FlocQueue::is_attack_path(const PathId& origin) const {
  const auto oit = origins_.find(origin.key());
  if (oit == origins_.end()) return false;
  const auto ait = aggregates_.find(oit->second.aggregate_key);
  return ait != aggregates_.end() && ait->second.attack;
}

bool FlocQueue::is_aggregated(const PathId& origin) const {
  const auto oit = origins_.find(origin.key());
  if (oit == origins_.end()) return false;
  return oit->second.aggregate_key != origin.key();
}

double FlocQueue::conformance(const PathId& origin) const {
  const auto oit = origins_.find(origin.key());
  return oit == origins_.end() ? 1.0 : oit->second.conformance();
}

const model::TokenBucketParams* FlocQueue::params_for(
    const PathId& origin) const {
  const auto oit = origins_.find(origin.key());
  if (oit == origins_.end()) return nullptr;
  const auto ait = aggregates_.find(oit->second.aggregate_key);
  return ait == aggregates_.end() ? nullptr : &ait->second.params;
}

double FlocQueue::flow_mtd(const PathId& origin, std::uint64_t key,
                           TimeSec now) {
  auto oit = origins_.find(origin.key());
  if (oit == origins_.end()) return std::numeric_limits<double>::infinity();
  auto ait = aggregates_.find(oit->second.aggregate_key);
  if (ait == aggregates_.end()) return std::numeric_limits<double>::infinity();
  FlowRecord* fr = oit->second.find_flow(key);
  if (fr == nullptr) return std::numeric_limits<double>::infinity();
  return measured_flow_mtd(key, *fr, ait->second, now);
}

std::size_t FlocQueue::path_flow_count(const PathId& origin) const {
  const auto oit = origins_.find(origin.key());
  return oit == origins_.end() ? 0 : oit->second.flow_count();
}

int FlocQueue::backoff_multiplier(const PathId& origin) const {
  if (!cfg_.backoff_release) return 1;
  const auto oit = origins_.find(origin.key());
  const std::uint64_t akey =
      oit != origins_.end() ? oit->second.aggregate_key : origin.key();
  const auto poit = offense_.find(akey);
  return poit == offense_.end() ? 1 : poit->second.multiplier;
}

int FlocQueue::release_required(const PathId& origin) const {
  return kAttackRelease * backoff_multiplier(origin);
}

bool FlocQueue::is_blacklisted(HostAddr src, TimeSec now) const {
  const auto it = offenders_.find(src);
  return it != offenders_.end() && now < it->second.blacklisted_until;
}

std::size_t FlocQueue::blacklist_size(TimeSec now) const {
  std::size_t n = 0;
  for (const auto& [src, o] : offenders_) {
    if (now < o.blacklisted_until) ++n;
  }
  return n;
}

}  // namespace floc
