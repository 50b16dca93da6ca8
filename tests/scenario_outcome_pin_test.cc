// Outcome pins: short Fig. 5 tree worlds whose admissions, drops by reason,
// delivered class bytes and target-link packet count are hard-coded.
//
// The golden-trace and engine-lockstep tests compare the simulator with
// itself, so a change that moves every outcome the same way on every engine
// passes them. These numbers were recorded with a Link that scheduled a
// tx-done event for every packet. Eliding the idle ones, and any later
// change to event ordering that is meant to be invisible, must leave them
// exactly as they are. Events tie exactly at (time) on equal-rate hops, so
// a change that reorders such ties shows up here as moved drop counters.
//
// If a change is meant to alter outcomes, re-record the table and say why in
// the commit that does it.
#include <cstdint>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "topology/tree_scenario.h"
#include "transport/flow_monitor.h"

namespace floc {
namespace {

struct PinCase {
  const char* name;
  DefenseScheme scheme;
  AttackType attack;
  void (*tune)(TreeScenarioConfig&) = nullptr;  // case-specific settings
};

struct PinOutcome {
  std::uint64_t admissions = 0;
  std::uint64_t drops[kDropReasonCount] = {};  // by DropReason ordinal
  double legit_legit_bytes = 0.0;
  double legit_attack_bytes = 0.0;
  double attack_bytes = 0.0;
  std::uint64_t packets_sent = 0;
};

// scenbench's floc_churn world: identity churn against FLoc with every
// per-path table budgeted, overload mode, backoff release and the blacklist
// armed, so most packets insert into or evict from the path tables.
void state_exhaust_budgeted(TreeScenarioConfig& cfg) {
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
}

// 27 leaf paths, 6 of them attack paths: |S|_max = 24 leaves room for 3
// attack identifiers, so attack-path aggregation merges the attack tree.
void small_s_max(TreeScenarioConfig& cfg) { cfg.floc.s_max = 24; }

constexpr PinCase kCases[] = {
    {"floc_tcp_population", DefenseScheme::kFloc, AttackType::kTcpPopulation},
    {"floc_cbr", DefenseScheme::kFloc, AttackType::kCbr},
    {"floc_shrew", DefenseScheme::kFloc, AttackType::kShrew},
    {"droptail_cbr", DefenseScheme::kDropTail, AttackType::kCbr},
    {"red_pd_cbr", DefenseScheme::kRedPd, AttackType::kCbr},
    {"pushback_cbr", DefenseScheme::kPushback, AttackType::kCbr},
    {"floc_state_exhaust_budgeted", DefenseScheme::kFloc,
     AttackType::kStateExhaust, state_exhaust_budgeted},
    {"floc_cbr_s_max_24", DefenseScheme::kFloc, AttackType::kCbr,
     small_s_max},
};

// Index-aligned with kCases. Drop columns: queue_full, token, preferential,
// random_early, rate_limit, capability, blacklist, overload.
const PinOutcome kPinned[] = {
    {48717u,
     {0, 532, 79, 3621, 0, 0, 0, 0},
     52200000, 7515000, 12729000,
     48659u},
    {48492u,
     {0, 3549, 54976, 3869, 0, 0, 0, 0},
     61917000, 4341000, 5956500,
     48454u},
    {48527u,
     {0, 3188, 10791, 2303, 0, 0, 0, 0},
     63315000, 4821000, 4164000,
     48497u},
    {49055u,
     {22828, 0, 0, 0, 0, 0, 0, 0},
     8799000, 3174000, 61078500,
     48846u},
    {46707u,
     {110, 0, 55629, 3244, 0, 0, 0, 0},
     46524000, 13704000, 9507000,
     46663u},
    {48878u,
     {2500, 0, 0, 0, 32, 0, 0, 0},
     47790000, 2800500, 22194000,
     48710u},
    {52151u,
     {268, 1515, 761, 1519, 0, 0, 0, 1116897},
     52692000, 16122000, 708800,
     52098u},
    {48856u,
     {0, 1277, 54703, 4768, 0, 0, 0, 0},
     61167000, 3250500, 8332500,
     48804u},
};
static_assert(std::size(kCases) == std::size(kPinned));

// The Fig. 5 tree at the scenario benches' quick scale, cut short.
TreeScenarioConfig pin_cfg(const PinCase& c) {
  TreeScenarioConfig cfg;
  cfg.scale = 0.08;
  cfg.attack_rate = mbps(2.0);
  cfg.legit_start_spread = 2.0;
  cfg.attack_start = 2.0;
  cfg.duration = 15.0;
  cfg.measure_start = 4.0;
  cfg.measure_end = 15.0;
  cfg.shrew_period = 0.05;
  cfg.shrew_duty = 0.25;
  cfg.seed = 11;
  cfg.scheme = c.scheme;
  cfg.attack = c.attack;
  if (c.tune != nullptr) c.tune(cfg);
  return cfg;
}

PinOutcome run_case(const PinCase& c) {
  TreeScenario s(pin_cfg(c));
  s.run();
  PinOutcome o;
  const QueueDisc& q = s.bottleneck_queue();
  o.admissions = q.admissions();
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    o.drops[r] = q.drops_by_reason(static_cast<DropReason>(r));
  }
  const FlowMonitor& m = s.monitor();
  o.legit_legit_bytes =
      m.class_cumulative_bytes(FlowMonitor::is_legit_on_legit_path);
  o.legit_attack_bytes =
      m.class_cumulative_bytes(FlowMonitor::is_legit_on_attack_path);
  o.attack_bytes = m.class_cumulative_bytes(FlowMonitor::is_attack);
  o.packets_sent = s.target_link()->packets_sent();
  return o;
}

// Parameterised by index so the test names carry the case name, not a
// byte dump of a struct.
class OutcomePin : public ::testing::TestWithParam<int> {};

TEST_P(OutcomePin, MatchesRecordedOutcome) {
  const PinCase& c = kCases[GetParam()];
  const PinOutcome& want = kPinned[GetParam()];
  const PinOutcome got = run_case(c);
  EXPECT_EQ(got.admissions, want.admissions);
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    EXPECT_EQ(got.drops[r], want.drops[r])
        << "drops." << to_string(static_cast<DropReason>(r));
  }
  EXPECT_EQ(got.legit_legit_bytes, want.legit_legit_bytes);
  EXPECT_EQ(got.legit_attack_bytes, want.legit_attack_bytes);
  EXPECT_EQ(got.attack_bytes, want.attack_bytes);
  EXPECT_EQ(got.packets_sent, want.packets_sent);
}

INSTANTIATE_TEST_SUITE_P(
    Fig5, OutcomePin, ::testing::Range(0, static_cast<int>(std::size(kCases))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kCases[info.param].name);
    });

}  // namespace
}  // namespace floc
