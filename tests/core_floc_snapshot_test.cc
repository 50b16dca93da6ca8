// QueueDisc::snapshot_state: the FlocQueue dump names latched attack paths
// with their token-bucket levels, redacts the capability secret, bounds the
// per-origin flow listing, and every baseline emits a minimal parseable
// dump.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "baselines/drr_queue.h"
#include "baselines/priority_fair.h"
#include "baselines/pushback.h"
#include "baselines/rate_limiter.h"
#include "baselines/red_pd.h"
#include "baselines/red_queue.h"
#include "core/floc_queue.h"
#include "util/json.h"

namespace floc {
namespace {

Packet data(FlowId flow, const PathId& path, HostAddr src = 1,
            HostAddr dst = 99) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = dst;
  p.path = path;
  p.type = PacketType::kData;
  return p;
}

FlocConfig small_cfg() {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 60;
  cfg.control_interval = 0.05;
  cfg.default_rtt = 0.05;
  cfg.enable_aggregation = false;
  return cfg;
}

// Drives a FlocQueue with one over-rate path and one conformant path until
// the flood latches (the core_floc_queue_test idiom).
double drive_flood(FlocQueue& q, const PathId& good, const PathId& bad) {
  const double dt = 1.0 / 2500.0;
  double next_service = 0.0;
  double t = 0.0;
  for (int i = 0; i < 12500; ++i) {  // 5 seconds, attack at 3x the link
    t = i * dt;
    q.enqueue(data(100, bad, /*src=*/2), t);
    if (i % 15 == 0) q.enqueue(data(1, good, /*src=*/1), t);
    while (next_service <= t) {
      q.dequeue(next_service);
      next_service += 1.0 / 833.0;
    }
  }
  q.run_control(t + 0.01);
  return t;
}

std::string snapshot_of(const QueueDisc& q, TimeSec now) {
  json::JsonWriter w;
  q.snapshot_state(w, now);
  EXPECT_TRUE(w.ok());
  return w.str();
}

TEST(FlocSnapshot, NamesLatchedPathWithBucketLevels) {
  FlocQueue q(small_cfg());
  const PathId good = PathId::of({1, 10});
  const PathId bad = PathId::of({2, 20});
  const double t = drive_flood(q, good, bad);
  ASSERT_TRUE(q.is_attack_path(bad));

  const std::string text = snapshot_of(q, t);
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(text, &v, &err)) << err;
  EXPECT_EQ(v.string_or("scheme", ""), "floc");

  // The latched path appears by name in the aggregates array, flagged as
  // attack, with its token-bucket fill levels readable.
  const json::Value* aggs = v.get("aggregates");
  ASSERT_NE(aggs, nullptr);
  ASSERT_TRUE(aggs->is_array());
  const json::Value* latched = nullptr;
  for (const json::Value& a : aggs->items) {
    if (a.bool_or("attack", false)) {
      latched = &a;
      break;
    }
  }
  ASSERT_NE(latched, nullptr) << text;
  EXPECT_EQ(latched->string_or("path", ""), bad.to_string());
  const json::Value* bucket = latched->get("bucket");
  ASSERT_NE(bucket, nullptr);
  EXPECT_TRUE(bucket->bool_or("configured", false));
  const json::Value* tokens = bucket->get("tokens_base");
  ASSERT_NE(tokens, nullptr);
  EXPECT_TRUE(tokens->is_number());
  EXPECT_GT(bucket->number_or("capacity_base", 0.0), 0.0);

  // The conformant path shows up unflagged among the origins.
  const json::Value* origins = v.get("origins");
  ASSERT_NE(origins, nullptr);
  bool saw_good = false;
  for (const json::Value& o : origins->items) {
    if (o.string_or("path", "") == good.to_string()) saw_good = true;
  }
  EXPECT_TRUE(saw_good);

  // Mode machine and offense ledger are present.
  const json::Value* mode = v.get("mode");
  ASSERT_NE(mode, nullptr);
  EXPECT_FALSE(mode->string_or("name", "").empty());
  EXPECT_NE(v.get("offense"), nullptr);
  EXPECT_NE(v.get("state_budget"), nullptr);
}

TEST(FlocSnapshot, CapabilitySecretIsRedacted) {
  FlocConfig cfg = small_cfg();
  const std::string text = [&] {
    FlocQueue q(cfg);
    q.enqueue(data(1, PathId::of({1, 10})), 0.0);
    return snapshot_of(q, 0.1);
  }();
  EXPECT_NE(text.find("\"secret\":\"redacted\""), std::string::npos) << text;
  // Neither the decimal nor any obvious hex rendering of the provisioned
  // secret may appear anywhere in the dump.
  EXPECT_NE(cfg.secret, 0u);
  EXPECT_EQ(text.find(std::to_string(cfg.secret)), std::string::npos);
  EXPECT_EQ(text.find("F10C"), std::string::npos);
  EXPECT_EQ(text.find("f10c"), std::string::npos);
}

TEST(FlocSnapshot, PerOriginFlowDumpIsBoundedWithExplicitOmissionCount) {
  FlocConfig cfg = small_cfg();
  FlocQueue q(cfg);
  const PathId path = PathId::of({3, 30});
  for (int i = 0; i < 50; ++i) {  // 50 flows on one origin, bound is 32
    q.enqueue(data(static_cast<FlowId>(1000 + i), path), 0.001 * i);
    q.dequeue(0.001 * i);
  }
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(snapshot_of(q, 0.1), &v, &err)) << err;
  const json::Value* origins = v.get("origins");
  ASSERT_NE(origins, nullptr);
  ASSERT_EQ(origins->items.size(), 1u);
  const json::Value& o = origins->items[0];
  EXPECT_DOUBLE_EQ(o.number_or("flow_count", 0.0), 50.0);
  const json::Value* flows = o.get("flows");
  ASSERT_NE(flows, nullptr);
  EXPECT_EQ(flows->items.size(), 32u);
  EXPECT_DOUBLE_EQ(o.number_or("flows_omitted", 0.0), 18.0);
}

TEST(FlocSnapshot, SnapshotIsDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    FlocQueue q(small_cfg());
    const PathId good = PathId::of({1, 10});
    const PathId bad = PathId::of({2, 20});
    const double t = drive_flood(q, good, bad);
    return snapshot_of(q, t);
  };
  EXPECT_EQ(run(), run());
}

// An aggregation run only plans: an origin keeps reporting its old
// aggregate until its next data packet or the next control tick adopts the
// planned one. The snapshot's "plan" section shows the plan at once.
TEST(FlocSnapshot, PlannedMergeIsAdoptedOnNextPacketOrTick) {
  FlocConfig cfg = small_cfg();
  cfg.control_interval = 0.1;
  cfg.enable_aggregation = true;
  cfg.aggregation_every = 1;
  cfg.s_max = 1;  // two legitimate siblings must merge into their prefix
  FlocQueue q(cfg);
  const PathId a = PathId::of({1, 10});
  const PathId b = PathId::of({1, 11});
  q.enqueue(data(1, a, /*src=*/1), 0.0);
  q.enqueue(data(2, b, /*src=*/2), 0.0);

  // Reads (adopted aggregate, planned aggregate) for `path` from a snapshot.
  const auto keys_of = [&q](const PathId& path, TimeSec now) {
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(snapshot_of(q, now), &v, &err)) << err;
    double adopted = -1.0;
    double planned = -1.0;
    for (const json::Value& o : v.get("origins")->items) {
      if (o.string_or("path", "") == path.to_string()) {
        adopted = o.number_or("aggregate_key", -1.0);
      }
    }
    const double okey = static_cast<double>(path.key());
    for (const json::Value& e : v.get("plan")->items) {
      if (e.number_or("origin", -1.0) == okey) {
        planned = e.number_or("aggregate", -1.0);
      }
    }
    return std::pair{adopted, planned};
  };

  q.run_control(0.01);  // identity rebuild, then the merge is planned
  const auto [a_adopted, a_planned] = keys_of(a, 0.01);
  const auto [b_adopted, b_planned] = keys_of(b, 0.01);
  EXPECT_EQ(a_adopted, static_cast<double>(a.key()));
  EXPECT_EQ(b_adopted, static_cast<double>(b.key()));
  EXPECT_NE(a_planned, a_adopted);
  EXPECT_EQ(a_planned, b_planned);
  EXPECT_FALSE(q.is_aggregated(a));
  EXPECT_FALSE(q.is_aggregated(b));

  q.enqueue(data(1, a, /*src=*/1), 0.02);  // a's packet adopts the plan
  EXPECT_TRUE(q.is_aggregated(a));
  EXPECT_FALSE(q.is_aggregated(b));
  EXPECT_EQ(keys_of(a, 0.02).first, a_planned);
  EXPECT_EQ(keys_of(b, 0.02).first, b_adopted);

  q.run_control(0.03);  // the tick's rebuild adopts it for silent b
  EXPECT_TRUE(q.is_aggregated(b));
  EXPECT_EQ(keys_of(b, 0.03).first, b_planned);
  EXPECT_EQ(keys_of(b, 0.03).second, b_planned);
}

// Every baseline dumps at least {scheme, packets, bytes, drops, admissions}
// plus its own state, and the result parses.
TEST(BaselineSnapshot, AllBaselinesEmitParseableDumps) {
  RedConfig red;
  red.buffer_packets = 100;
  red.link_bandwidth = mbps(10);
  RedQueue red_q(red);

  RedPdConfig red_pd;
  red_pd.red.buffer_packets = 60;
  RedPdQueue red_pd_q(red_pd);

  PushbackConfig pb;
  pb.buffer_packets = 50;
  pb.link_bandwidth = mbps(10);
  PushbackQueue pb_q(pb);

  DrrConfig drr;
  drr.buffer_packets = 100;
  DrrQueue drr_q(drr);

  RateLimiterQueue rl_q(100);
  rl_q.install_limit(PathId::of({5}), mbps(1), /*expires=*/100.0);

  std::set<FlowId> legit{1};
  PriorityFairConfig pf;
  pf.buffer_packets = 50;
  pf.link_bandwidth = mbps(10);
  PriorityFairQueue pf_q(pf, [&legit](FlowId f) { return legit.count(f) != 0; });

  struct Case {
    const char* scheme;
    QueueDisc* q;
  } cases[] = {{"red", &red_q},          {"red-pd", &red_pd_q},
               {"pushback", &pb_q},      {"drr", &drr_q},
               {"rate-limiter", &rl_q},  {"priority-fair", &pf_q}};
  for (const Case& c : cases) {
    c.q->enqueue(data(1, PathId::of({1, 11})), 0.0);
    c.q->enqueue(data(2, PathId::of({5, 9})), 0.001);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(snapshot_of(*c.q, 0.01), &v, &err))
        << c.scheme << ": " << err;
    EXPECT_EQ(v.string_or("scheme", ""), c.scheme);
    EXPECT_NE(v.get("packets"), nullptr) << c.scheme;
    EXPECT_NE(v.get("drops"), nullptr) << c.scheme;
    EXPECT_NE(v.get("admissions"), nullptr) << c.scheme;
  }
}

}  // namespace
}  // namespace floc {
