// The FLoc router subsystem (Sections III–V) packaged as a queue discipline
// for the congested link.
//
// Responsibilities:
//  * per-path token buckets sized from (C_Si, RTT_i, n_i) — Eqs. IV.1–IV.3;
//  * capability issuance on SYNs and verification on data (Section III-A);
//  * RTT estimation from capability issue to first use (Section V-A);
//  * three queue modes — uncongested / congested / flooding — with early
//    congested-mode entry for over-subscribed paths and the random-threshold
//    neutral drop policy (Section V-A);
//  * per-flow MTD measurement and the preferential-drop admission policy
//    Pr(serviced) = I_token * min{1, MTD/(n_i*T_Si)} — Eqs. IV.4–IV.5;
//  * path conformance tracking (Eq. IV.6) and attack/legitimate path
//    aggregation (Section IV-C) against the |S|_max budget;
//  * covert-attack slot accounting via n_max capability slots (IV-B.3);
//  * optional scalable mode where MTD state lives in a bloom-style drop
//    filter instead of exact per-flow records (Section V-B).
//
// The control loop (parameter re-estimation, conformance update, aggregation)
// runs lazily off packet arrivals every `control_interval`, so the queue
// needs no timers and composes with any simulator driving enqueue/dequeue.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/aggregation.h"
#include "core/capability.h"
#include "core/drop_filter.h"
#include "core/flow_table.h"
#include "core/model.h"
#include "core/state_budget.h"
#include "core/token_bucket.h"
#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace floc {

// Degradation stance while soft state is being relearned after a reboot
// (Section "Fault model" in docs/INTERNALS.md): fail-open favors legitimate
// traffic continuity (token shortfalls fall back to the neutral
// random-threshold policy), fail-closed favors attack confinement (strict
// token drops even before paths are re-identified).
enum class RecoveryPolicy { kFailOpen, kFailClosed };

struct FlocConfig {
  BitsPerSec link_bandwidth = mbps(500);
  std::size_t buffer_packets = 1000;
  double qmin_frac = 0.2;      // Q_min as a fraction of the buffer
  int pkt_bytes = 1500;

  // Bandwidth guarantees / aggregation.
  int s_max = 1 << 30;         // |S|_max
  double e_th = 0.5;           // attack-tree conformance threshold
  double beta = 0.2;           // conformance smoothing (Eq. IV.6)
  double legit_max_increase = 0.5;
  bool enable_aggregation = true;

  // Attack identification.
  double attack_mtd_factor = 0.5;  // flow is attack if MTD < factor*refMTD
  double mtd_window_factor = 2.0;  // k = factor*n_i periods (k >= n_i)
  bool enable_preferential_drop = true;
  // Hysteresis on the attack-path flag: latch after `attack_latch`
  // consecutive positive intervals, release after `attack_release` calm ones.
  int attack_latch = 4;
  int attack_release = 4;
  // Ablation knob: always use the base bucket N instead of the enlarged N'
  // (Eq. IV.3) in congested mode — quantifies what the increase buys.
  bool force_base_bucket = false;

  // Estimation.
  double rtt_damping = 0.5;    // divide measured path RTT (Section V-A)
  TimeSec default_rtt = 0.1;   // before any sample exists
  TimeSec flow_timeout = 2.0;  // active-flow expiry
  TimeSec control_interval = 0.25;
  int aggregation_every = 4;   // control ticks between aggregation runs

  // Capabilities / covert defense.
  bool enable_capabilities = true;
  int n_max = 0;               // capability slots per source (0 = off)
  std::uint64_t secret = 0xF10CF10CF10CULL;

  // Fault tolerance (driven by src/faultsim): relearn window after reboot().
  RecoveryPolicy recovery_policy = RecoveryPolicy::kFailOpen;
  int recovery_intervals = 2;  // control intervals of post-reboot grace

  // --- Hardening against closed-loop (detector-gaming) adversaries ---------
  // All knobs default OFF; the baseline reproduction is bit-identical with
  // them disabled (jitter=0 draws no RNG values).
  //
  // Seeded jitter on the measurement clock: every control tick the interval
  // length and each aggregate's effective token period are scaled by
  // 1 + U(-j, +j), so a pulse attacker that locked onto T_Si from observed
  // drop spacing keeps mis-phasing. Period and bucket size are scaled
  // together: the long-run token rate (bucket/period) is unchanged, only the
  // refill boundaries move, so conformant flows see the same throughput.
  double interval_jitter = 0.0;
  // Exponential-backoff release: a path that re-latches within
  // `backoff_relapse` seconds of its last release doubles its calm-streak
  // release requirement (multiplier capped at `backoff_cap`); the
  // multiplier halves for every `backoff_decay` seconds the path stays
  // unlatched. Defeats duty-cycled attackers that time their quiet phases
  // to the fixed attack_release — they must relapse fast to gain anything —
  // while legitimate paths whose sporadic marginal latches are minutes or
  // seconds apart never escalate. The per-path offense record — and the
  // latched flag itself — survives reboot()/relearn: it is an issued
  // verdict, not re-derivable soft state.
  bool backoff_release = false;
  int backoff_cap = 16;
  TimeSec backoff_relapse = 3.0;
  TimeSec backoff_decay = 10.0;
  // Escalation additionally requires the offered load at latch time to
  // exceed `backoff_lambda_factor` times the latch threshold: an attack
  // blast arrives at several times the path allocation, while a legitimate
  // path dragged over the detection line by flooding-mode collateral
  // crosses it marginally — and both relapse on the *attacker's* cycle, so
  // timing alone cannot tell them apart.
  double backoff_lambda_factor = 2.0;
  // Per-sender offender table: a sender whose packets are dropped on a
  // latched path while it sends above its fair share with an attack-grade
  // MTD accumulates strikes — at most one per control interval, so a
  // single TCP loss burst (many drops, one interval) counts once, while a
  // flood striking every interval reaches `blacklist_strikes` in
  // strikes*interval seconds. Strikes halve every interval the sender goes
  // without a new one, so transients wash out. At `blacklist_strikes` the
  // sender is blacklisted for `blacklist_duration` seconds and every data
  // packet it sends is dropped on sight. Entries survive reboot(), closing
  // the relearn window that flow-id-rotating attackers otherwise exploit.
  bool enable_blacklist = false;
  int blacklist_strikes = 12;
  TimeSec blacklist_duration = 8.0;
  // Feedback poisoning: with probability `jitter_dip_prob` per aggregate
  // per control tick, the effective bucket for that tick is additionally
  // scaled by a factor drawn uniformly from [jitter_dip_floor, 1) — the
  // period is NOT scaled, so the tick's admitted volume genuinely dips.
  // On paths under probation (carrying an offense record, i.e. they have
  // latched at least once; requires backoff_release) a dip tick also
  // enforces tokens strictly, turning the shortfall into real losses. A
  // loss-averse closed-loop attacker probing the admission edge (shrink on
  // any lossy epoch, creep up on clean ones) sees losses at unpredictable
  // times, so its search contracts toward its floor instead of converging
  // just under the bucket. Paths that never latch — a flash crowd — are
  // never audited strictly: they only ever see the milder bucket dip,
  // where a token shortfall still falls back to the congested-mode neutral
  // policy and responsive flows retransmit what the dip costs them. Drawn
  // from the same order-independent hash as the period jitter (distinct
  // salt), so runs stay reproducible and --jobs invariant.
  double jitter_dip_prob = 0.0;
  double jitter_dip_floor = 0.5;

  // --- Bounded state / overload resilience --------------------------------
  // All knobs default OFF (capacity 0 = unbounded, overload mode disabled);
  // the baseline is bit-identical with them off. With budgets on, each table
  // never exceeds its capacity at any observable point: an insert into a
  // full table first batch-evicts down to the budget's shrink target, with
  // deterministic (iteration-order-independent) victim selection. Evicted
  // *guilty* state (latched paths, sentenced senders) is remembered in a
  // fixed-size two-bank sketch, so an offender that churns identities to
  // push its own verdict out of the table re-latches within one MTD
  // (control) interval of resuming instead of re-earning a fresh hysteresis
  // run-up. The sketch — like the offense/offender verdict tables — survives
  // reboot().
  StateBudgetConfig origin_budget;    // origins_ (aggregates_/plan_map_ are
                                      // derivative: bounding origins bounds
                                      // them, enforced by audit())
  StateBudgetConfig flow_budget;      // per-origin accounting-flow records
  StateBudgetConfig offense_budget;   // per-path offense records
  StateBudgetConfig offender_budget;  // per-sender strike/blacklist records
  // Overload mode: when the worst bounded-table occupancy crosses
  // `overload_enter`, the queue degrades gracefully instead of thrashing —
  // NEW per-path state is learned at router-side prefix granularity
  // `overload_path_prefix` (churned identities collapse into a handful of
  // coarse entries while established paths keep full granularity), and
  // admission tightens to capability-carrying traffic (churned identities
  // never complete a handshake, so their data carries no capability).
  // Exits — with hysteresis — when occupancy falls below `overload_exit`.
  bool enable_overload_mode = false;
  double overload_enter = 0.9;
  double overload_exit = 0.7;
  int overload_path_prefix = 1;
  bool overload_require_caps = true;
  // While overloaded, SYNs are also budgeted per origin path (token bucket:
  // `overload_syn_rate`/s, burst `overload_syn_burst`): identity churn
  // escalates into a pure handshake storm, and its coarsened identities
  // funnel through a few paths while legitimate leaf paths keep their own
  // barely-touched buckets. 0 disables the gate. Shed SYNs plant no flow
  // record, so the storm cannot pin the flow-table occupancy either.
  double overload_syn_rate = 50.0;
  double overload_syn_burst = 20.0;
  // Control ticks between re-latch sketch rotations; a mark survives one to
  // two rotation periods. 0 disables rotation (marks live forever).
  int sketch_rotate_ticks = 64;

  // Scalable mode (Section V-B): MTD from the drop filter.
  bool use_scalable_filter = false;
  DropFilterConfig filter;
  // Section V-B.1: estimate the number of competing flows per path from the
  // observed drop rate instead of exact per-flow counting — the high-speed
  // design where per-flow state is unaffordable. Blends with the previous
  // estimate (EWMA) for stability; exact counting remains the default.
  bool estimate_flow_count = false;

  std::uint64_t rng_seed = 42;
};

class FlocQueue : public QueueDisc {
 public:
  explicit FlocQueue(FlocConfig cfg);

  bool enqueue(Packet&& p, TimeSec now) override;
  std::optional<Packet> dequeue(TimeSec now) override;
  bool empty() const override { return q_.empty(); }
  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return q_.bytes(); }

  // --- Introspection (tests, experiments) --------------------------------
  enum class Mode { kUncongested, kCongested, kFlooding };
  Mode mode() const;
  static const char* mode_name(Mode m);
  std::size_t q_min() const { return q_min_; }
  std::size_t q_max() const { return q_max_; }

  int active_aggregate_count() const { return static_cast<int>(aggregates_.size()); }
  int active_origin_path_count() const { return static_cast<int>(origins_.size()); }
  bool is_attack_path(const PathId& origin) const;
  bool is_aggregated(const PathId& origin) const;
  double conformance(const PathId& origin) const;
  // Token parameters of the aggregate serving `origin` (if active).
  const model::TokenBucketParams* params_for(const PathId& origin) const;
  double flow_mtd(const PathId& origin, std::uint64_t acct_key, TimeSec now);
  std::size_t path_flow_count(const PathId& origin) const;
  const CapabilityIssuer& issuer() const { return issuer_; }

  std::uint64_t drops_by_reason(DropReason r) const {
    return drop_counts_[static_cast<std::size_t>(r)];
  }
  std::uint64_t capability_violations() const { return cap_violations_; }

  // --- Hardening introspection (tests, benches) --------------------------
  // Calm intervals currently required to release `origin` (attack_release
  // times the path's backoff multiplier).
  int release_required(const PathId& origin) const;
  int backoff_multiplier(const PathId& origin) const;
  bool is_blacklisted(HostAddr src, TimeSec now) const;
  std::size_t blacklist_size(TimeSec now) const;

  // --- State-budget / overload introspection (tests, benches) ------------
  bool overloaded() const { return overloaded_; }
  std::uint64_t overload_entries() const { return overload_entries_; }
  std::size_t offense_size() const { return offense_.size(); }
  std::size_t offender_size() const { return offenders_.size(); }
  // Accounting-flow records across all origin paths ("flow_table.size").
  std::size_t flow_record_count() const;
  // Largest per-origin flow table (the flow_budget bound applies per path).
  std::size_t max_path_flow_count() const;
  std::uint64_t evicted_origins() const { return evict_origins_; }
  std::uint64_t evicted_flows() const { return evict_flows_; }
  std::uint64_t evicted_offense() const { return evict_offense_; }
  std::uint64_t evicted_offenders() const { return evict_offenders_; }
  std::uint64_t state_evictions() const {
    return evict_origins_ + evict_flows_ + evict_offense_ + evict_offenders_;
  }
  // Worst occupancy fraction over the enabled budgets (0 when none enabled).
  double state_occupancy() const;

  // --- Fault / churn surface (src/faultsim) ------------------------------
  // Simulate a router reboot at `now`: all soft state — origin paths,
  // aggregates, the aggregation plan, flow tables, RTT estimates, the
  // scalable filter — is lost, and unless `preserve_queue` so are the
  // buffered packets. The capability secret survives (it is provisioned
  // configuration, not learned state), as do the hardening verdict tables
  // (path offense records and the sender blacklist): with backoff_release
  // on, a path latched before the reboot re-latches as soon as it is
  // relearned instead of enjoying a fresh hysteresis run-up. For the next
  // `recovery_intervals` control intervals the queue degrades per
  // `recovery_policy`.
  void reboot(TimeSec now, bool preserve_queue = false);
  std::uint64_t reboots() const { return reboots_; }
  bool in_recovery(TimeSec now) const { return now < recovery_until_; }

  // Rotate the capability secret at `now`. Capabilities issued under the
  // old secret verify for one more control interval; within that window
  // unverifiable data packets are re-stamped under the new secret instead
  // of dropped (re-issue-on-miss), so established legitimate flows are not
  // all cut off at once.
  void rotate_secret(std::uint64_t new_secret, TimeSec now);
  std::uint64_t cap_reissues() const { return cap_reissues_; }

  std::uint64_t dequeues() const { return dequeues_; }

  // SimMonitor invariants: byte accounting, token bounds, packet
  // conservation, drop-ledger consistency.
  bool audit(TimeSec now, std::string* why) const override;

  // Force a control-loop pass at `now` (tests).
  void run_control(TimeSec now) {
    control(now);
    if (journal_ != nullptr) journal_mode(now);
  }

  // --- Telemetry (src/telemetry) -----------------------------------------
  // Publish the queue's counters as polled gauges under `prefix` and start
  // journaling defense events (mode transitions with the triggering queue
  // measurement, attack-path latch/release with the triggering MTD, key
  // rotations, capability re-issues, reboots, recovery completion, and every
  // drop with its DropReason). Detached (the default) the hot path pays one
  // pointer-null test; nullptr detaches again.
  void attach_telemetry(telemetry::Telemetry* t,
                        const std::string& prefix = "floc");

  // Base queue gauges plus the state-size gauges ("floc.origins",
  // "floc.aggregates", "floc.offense", "floc.offenders", "flow_table.size"),
  // so table growth is visible in every bench CSV that samples the queue.
  void register_metrics(telemetry::MetricRegistry& reg,
                        const std::string& prefix) const override;

  // Full decision-state dump for incident bundles: mode machine, every
  // aggregate with its token-bucket levels and members, origin paths with
  // conformance / RTT / per-flow MTD records, the offense ledger, the
  // offender blacklist, state-budget occupancy and drop ledger. The
  // capability secret is redacted. Maps are emitted in sorted key order
  // (--jobs byte-identity); capture-time only, never on the packet path.
  void snapshot_state(json::JsonWriter& w, TimeSec now) const override;

  // Attribute the queue's wall-clock cost to profiler sections
  // "<prefix>.enqueue", ".dequeue", ".control" (the lazy control loop) and
  // ".cap_verify" (SipHash capability verification). nullptr detaches.
  void set_profiler(telemetry::Profiler* prof,
                    const std::string& prefix = "floc");

 private:
  struct Aggregate {
    PathId id;
    double weight = 1.0;            // bandwidth shares
    bool attack = false;
    PathTokenBucket bucket;
    model::TokenBucketParams params;
    // Cached per-control-interval values:
    double n = 1.0;                 // accounting flows
    TimeSec rtt = 0.1;              // damped estimate
    BitsPerSec c = 0.0;             // guaranteed bandwidth
    double lambda_bps = 0.0;        // offered load last interval
    std::uint64_t drops_interval = 0;
    std::uint64_t token_misses_interval = 0;
    std::uint64_t arrivals_interval = 0;
    int attack_streak = 0;          // consecutive intervals condition held
    int calm_streak = 0;            // consecutive intervals condition clear
    bool dip_strict = false;        // this tick is a strict-audit (dip) tick
    double n_estimated = 0.0;       // smoothed drop-rate-based flow estimate
    std::vector<std::uint64_t> members;  // origin-path keys
  };

  // Persistent (reboot-surviving) offense record per aggregate path.
  struct PathOffense {
    int multiplier = 1;        // release-requirement scaling (1, 2, 4, ...)
    bool ever_latched = false; // first latch does not escalate
    bool attack = false;       // persisted latch verdict (restored on relearn)
    TimeSec next_decay = 0.0;  // when unlatched, halve multiplier at this time
    TimeSec last_release = -1.0;  // relapse-window anchor for escalation
    std::uint64_t touch_stamp = 0;  // monotone LRU stamp (state budgets)
  };
  // Per-sender strike/blacklist record (reboot-surviving).
  struct Offender {
    int strikes = 0;
    TimeSec blacklisted_until = -1.0;
    TimeSec last_strike = -1.0;  // strikes rate-limited to 1/control interval
    std::uint64_t touch_stamp = 0;  // monotone LRU stamp (state budgets)
  };

  OriginPathState& origin_state(const PathId& path, bool cap_backed = false);
  Aggregate& aggregate_for(OriginPathState& op);
  std::uint64_t acct_key(const Packet& p) const;
  void restore_offense(Aggregate& agg, std::uint64_t akey) const;
  void strike(HostAddr src, TimeSec now);

  // --- Bounded-state plumbing ---------------------------------------------
  bool relatch_enabled() const {
    return cfg_.origin_budget.enabled() || cfg_.offense_budget.enabled() ||
           cfg_.offender_budget.enabled();
  }
  std::uint64_t evict_salt() { return mix64(cfg_.rng_seed) ^ ++evict_rounds_; }
  static std::uint64_t offender_sketch_key(HostAddr src) {
    return 0x0FFE6DE20FFE6DE2ULL ^ static_cast<std::uint64_t>(src);
  }
  // Side effects of evicting one origin: plan/aggregate cleanup, sketch
  // marking of guilty (latched / latching) paths.
  void evict_origin(std::uint64_t okey, const OriginPathState& op);
  void enforce_origin_budget();
  void enforce_offense_budget();
  void enforce_offender_budget(TimeSec now);
  void update_overload(TimeSec now);
  void register_state_gauges(telemetry::MetricRegistry& reg) const;

  bool enqueue_impl(Packet&& p, TimeSec now);
  bool admit_data(Packet& p, TimeSec now);
  // Journal slow paths; callers gate on `journal_ != nullptr`.
  void journal_mode(TimeSec now);
  void journal_drop(const Packet& p, DropReason r, TimeSec now);
  // Span-annotation slow path: record the admission verdict (mode, verdict,
  // token-bucket fill, path) on the packet's queue span. Callers gate on
  // `tracer() != nullptr && p.span.active()`.
  void trace_verdict(const Packet& p, const Aggregate& agg, TimeSec now,
                     const char* verdict);
  void on_drop(const Packet& p, DropReason r, OriginPathState& op,
               Aggregate& agg, FlowRecord* fr, TimeSec now);
  void control(TimeSec now);
  void run_aggregation(TimeSec now);
  TimeSec measured_flow_mtd(const OriginPathState& op, std::uint64_t key,
                            FlowRecord& fr, const Aggregate& agg, TimeSec now);

  FlocConfig cfg_;
  CapabilityIssuer issuer_;
  Rng rng_;
  std::unique_ptr<ScalableDropFilter> filter_;

  PacketFifo q_;
  std::size_t q_min_;
  std::size_t q_max_;

  // Origin-path states keyed by full PathId::key().
  std::unordered_map<std::uint64_t, OriginPathState> origins_;
  // Aggregates keyed by aggregate PathId::key().
  std::unordered_map<std::uint64_t, Aggregate> aggregates_;
  // Current plan mapping origin key -> aggregate key.
  std::unordered_map<std::uint64_t, std::uint64_t> plan_map_;
  // Hardening state. Both tables survive reboot() deliberately (see the
  // FlocConfig comments); they stay empty while the knobs are off.
  std::unordered_map<std::uint64_t, PathOffense> offense_;
  std::unordered_map<HostAddr, Offender> offenders_;

  // Bounded-state machinery. The sketch survives reboot() like the verdict
  // tables it backs up; the counters are cumulative.
  EvictionSketch relatch_;
  bool overloaded_ = false;
  std::uint64_t overload_entries_ = 0;
  std::uint64_t touch_seq_ = 0;     // global LRU clock (origins/offense/offenders)
  std::uint64_t evict_rounds_ = 0;  // enforcement rounds (decay-policy salt)
  std::uint64_t evict_origins_ = 0;
  std::uint64_t evict_flows_ = 0;
  std::uint64_t evict_offense_ = 0;
  std::uint64_t evict_offenders_ = 0;
  EvictScratch evict_scratch_;  // enforce_budget ranking buffer, reused
  std::uint64_t journal_evict_mark_ = 0;  // evictions already journaled

  TimeSec next_control_ = 0.0;
  int control_ticks_ = 0;
  std::uint64_t drop_counts_[kDropReasonCount] = {};
  std::uint64_t cap_violations_ = 0;
  std::uint64_t cap_reissues_ = 0;
  std::uint64_t dequeues_ = 0;
  std::uint64_t flushed_ = 0;  // packets lost to reboot queue wipes
  std::uint64_t reboots_ = 0;
  TimeSec recovery_until_ = -1.0;

  // Telemetry (null = off; the hot path must stay allocation-free then).
  telemetry::EventJournal* journal_ = nullptr;
  Mode last_mode_ = Mode::kUncongested;
  bool recovery_pending_journal_ = false;

  // Profiler sections (null = off).
  telemetry::Profiler::Section* prof_enqueue_ = nullptr;
  telemetry::Profiler::Section* prof_dequeue_ = nullptr;
  telemetry::Profiler::Section* prof_control_ = nullptr;
  telemetry::Profiler::Section* prof_cap_verify_ = nullptr;
};

}  // namespace floc
