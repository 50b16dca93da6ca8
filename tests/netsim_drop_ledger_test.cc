// The drop ledger over every queue discipline.
//
// QueueDisc::note_drop is the one place a drop is recorded: it bumps the
// per-reason counter, journals the drop and ends the packet's queue span.
// For each discipline this drives every drop reason the discipline can
// produce, offering packets the way a traced Link does (a kQueue span per
// packet, ended at dequeue), then checks that the four views of the drops
// agree: drops() against the per-reason counters, the "<prefix>.drops.<r>"
// gauges, the dropped spans (status = reason ordinal + 1) and, for FLoc with
// a journal, the kDrop records.
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/drr_queue.h"
#include "baselines/priority_fair.h"
#include "baselines/pushback.h"
#include "baselines/rate_limiter.h"
#include "baselines/red_pd.h"
#include "baselines/red_queue.h"
#include "core/floc_queue.h"
#include "netsim/drop_tail.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracing.h"

namespace floc {
namespace {

constexpr std::size_t kBuffer = 64;
constexpr double kServicePps = 833.0;  // 10 Mbps of 1500 B packets

const PathId kHeavyPath = PathId::of({2, 20});
const PathId kLightPath = PathId::of({1, 10});

Packet make(PacketType type, FlowId flow, const PathId& path, HostAddr src) {
  Packet p;
  p.flow = flow;
  p.src = src;
  p.dst = 99;
  p.path = path;
  p.type = type;
  return p;
}

Packet data(FlowId flow, const PathId& path, HostAddr src) {
  return make(PacketType::kData, flow, path, src);
}

// Offers and services packets like a traced Link: every offered packet gets
// a queue span, and a dequeued packet's span ends normally.
class Driver {
 public:
  explicit Driver(QueueDisc& q) : q_(q) { q_.set_tracer(&tracer_); }

  bool offer(Packet p, TimeSec t) {
    const telemetry::SpanId id =
        tracer_.begin(t, p.flow, 0, telemetry::SpanKind::kQueue, 0, 0, p.seq,
                      p.size_bytes);
    p.span = SpanContext{p.flow, id, 0};
    return q_.enqueue(std::move(p), t);
  }

  // Dequeue at the service rate up to time `t`.
  void serve_until(TimeSec t) {
    if (next_service_ < 0.0) next_service_ = t;
    while (next_service_ <= t) {
      if (PacketRef p = q_.dequeue(next_service_)) {
        tracer_.end(p->span.span, next_service_);
      }
      next_service_ += 1.0 / kServicePps;
    }
  }

  // `n` back-to-back offers at `t` with no service: overruns the buffer.
  void burst(TimeSec t, int n) {
    for (int i = 0; i < n; ++i) {
      offer(data(static_cast<FlowId>(50 + i % 4), kLightPath, 7), t);
    }
  }

  // [t0, t1): the heavy flow offers 3x the link from sender 2, a light flow
  // a tenth of it from sender 1; service runs at link rate.
  void flood(TimeSec t0, TimeSec t1) {
    const double dt = 1.0 / 2500.0;
    const int steps = static_cast<int>((t1 - t0) / dt);
    for (int i = 0; i < steps; ++i) {
      const TimeSec t = t0 + i * dt;
      offer(data(100, kHeavyPath, 2), t);
      if (i % 30 == 0) offer(data(1, kLightPath, 1), t);
      serve_until(t);
    }
  }

  telemetry::Tracer& tracer() { return tracer_; }

 private:
  QueueDisc& q_;
  telemetry::Tracer tracer_;
  TimeSec next_service_ = -1.0;
};

struct Discipline {
  std::string name;
  std::function<std::unique_ptr<QueueDisc>()> make;
  std::function<void(QueueDisc&, Driver&)> drive;
  std::set<DropReason> reasons;  // every reason the discipline can produce
};

// Names the discipline in test listings instead of dumping the struct bytes.
void PrintTo(const Discipline& d, std::ostream* os) { *os << d.name; }

void burst_then_flood(QueueDisc&, Driver& d) {
  d.burst(0.0, 2 * static_cast<int>(kBuffer));
  d.flood(0.0, 4.0);
}

RedConfig red_cfg() {
  RedConfig cfg;
  cfg.buffer_packets = kBuffer;
  cfg.min_th = 8;
  cfg.max_th = 24;
  cfg.link_bandwidth = mbps(10);
  return cfg;
}

// FLoc, phase by phase: a flood that latches the heavy path (token and
// preferential drops) and blacklists its sender; a fail-open relearn window
// with an over-rate path (neutral random-early drops); a forged capability;
// a queue of transit ACKs filled to the brim; then identity churn that
// enters overload mode, where capability-less data is shed.
void drive_floc(QueueDisc& qd, Driver& d) {
  auto& q = static_cast<FlocQueue&>(qd);
  d.flood(0.0, 2.5);

  q.reboot(2.5, /*preserve_queue=*/true);
  const PathId fresh = PathId::of({3, 30});
  const double dt = 1.0 / 2500.0;
  for (int i = 0; i < 1250; ++i) {
    const TimeSec t = 2.5 + i * dt;
    d.offer(data(5, fresh, 5), t);
    d.serve_until(t);
  }

  Packet forged = data(6, kLightPath, 6);
  forged.cap0 = 0xBAD;
  forged.cap1 = 0xBAD;
  d.offer(std::move(forged), 3.0);

  // Drain, then fill with ACKs (admitted up to the buffer) and one more.
  d.serve_until(3.5);
  for (std::size_t i = 0; i <= kBuffer; ++i) {
    d.offer(make(PacketType::kAck, 7, kLightPath, 8), 3.5);
  }
  d.serve_until(4.0);

  for (int i = 0; i < 400 && !q.overloaded(); ++i) {
    const TimeSec t = 4.0 + i * 0.001;
    d.offer(make(PacketType::kSyn, static_cast<FlowId>(200 + i),
                 PathId::of({9, 5000u + static_cast<unsigned>(i)}), 3),
            t);
    d.serve_until(t);
  }
  ASSERT_TRUE(q.overloaded());
  d.offer(data(401, PathId::of({9, 88888}), 4), 4.5);
}

std::vector<Discipline> disciplines() {
  using R = DropReason;
  std::vector<Discipline> out;
  out.push_back({"droptail",
                 [] { return std::make_unique<DropTailQueue>(kBuffer); },
                 burst_then_flood,
                 {R::kQueueFull}});
  out.push_back({"red", [] { return std::make_unique<RedQueue>(red_cfg()); },
                 burst_then_flood,
                 {R::kQueueFull, R::kRandomEarly}});
  out.push_back({"red-pd",
                 [] {
                   RedPdConfig cfg;
                   cfg.red = red_cfg();
                   return std::make_unique<RedPdQueue>(cfg);
                 },
                 burst_then_flood,
                 {R::kQueueFull, R::kRandomEarly, R::kPreferential}});
  out.push_back({"pushback",
                 [] {
                   PushbackConfig cfg;
                   cfg.buffer_packets = kBuffer;
                   cfg.link_bandwidth = mbps(10);
                   return std::make_unique<PushbackQueue>(cfg);
                 },
                 burst_then_flood,
                 {R::kQueueFull, R::kRateLimit}});
  out.push_back({"rate-limiter",
                 [] {
                   auto q = std::make_unique<RateLimiterQueue>(kBuffer);
                   q->install_limit(kHeavyPath, mbps(2), 100.0);
                   return q;
                 },
                 burst_then_flood,
                 {R::kQueueFull, R::kRateLimit}});
  out.push_back({"priority-fair",
                 [] {
                   PriorityFairConfig cfg;
                   cfg.buffer_packets = kBuffer;
                   cfg.link_bandwidth = mbps(10);
                   // The heavy flow is attack-capable: over its fair share
                   // it is demoted, and high-priority arrivals push its
                   // buffered packets out.
                   return std::make_unique<PriorityFairQueue>(
                       cfg, [](FlowId f) { return f != 100; });
                 },
                 burst_then_flood,
                 {R::kQueueFull}});
  out.push_back({"drr",
                 [] {
                   DrrConfig cfg;
                   cfg.buffer_packets = kBuffer;
                   cfg.max_flow_queue = kBuffer / 4;
                   return std::make_unique<DrrQueue>(cfg);
                 },
                 burst_then_flood,
                 {R::kQueueFull}});
  out.push_back({"floc",
                 [] {
                   FlocConfig cfg;
                   cfg.link_bandwidth = mbps(10);
                   cfg.buffer_packets = kBuffer;
                   cfg.control_interval = 0.05;
                   cfg.default_rtt = 0.05;
                   cfg.enable_aggregation = false;
                   cfg.enable_blacklist = true;
                   cfg.recovery_intervals = 20;
                   cfg.origin_budget.capacity = 40;
                   cfg.enable_overload_mode = true;
                   return std::make_unique<FlocQueue>(cfg);
                 },
                 drive_floc,
                 {R::kQueueFull, R::kToken, R::kPreferential, R::kRandomEarly,
                  R::kCapability, R::kBlacklist, R::kOverload}});
  return out;
}

class DropLedger : public ::testing::TestWithParam<Discipline> {};

TEST_P(DropLedger, CountersGaugesSpansAndJournalAgree) {
  const Discipline& disc = GetParam();
  const std::unique_ptr<QueueDisc> q = disc.make();
  telemetry::Telemetry tel;
  std::string prefix = "q";
  auto* floc = dynamic_cast<FlocQueue*>(q.get());
  if (floc != nullptr) {
    floc->attach_telemetry(&tel);  // registers "floc.drops.<reason>"
    prefix = "floc";
  } else {
    q->register_metrics(tel.registry, prefix);
  }
  Driver d(*q);
  disc.drive(*q, d);
  if (HasFatalFailure()) return;

  // Every reason the discipline can produce was driven, and no other.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const DropReason r = static_cast<DropReason>(i);
    const std::uint64_t n = q->drops_by_reason(r);
    sum += n;
    if (disc.reasons.count(r) != 0) {
      EXPECT_GT(n, 0u) << to_string(r);
    } else {
      EXPECT_EQ(n, 0u) << to_string(r);
    }
    EXPECT_EQ(tel.registry.value(prefix + ".drops." + to_string(r)),
              static_cast<double>(n))
        << to_string(r);
  }
  EXPECT_EQ(q->drops(), sum);

  // Each drop ended exactly one queue span, with status = reason + 1; the
  // spans still open are exactly the packets still buffered.
  const telemetry::Tracer& tracer = d.tracer();
  ASSERT_FALSE(tracer.overflowed());
  std::uint64_t by_status[kDropReasonCount + 1] = {};
  for (const telemetry::Span& s : tracer.spans()) {
    ASSERT_LE(s.status, kDropReasonCount);
    ++by_status[s.status];
  }
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    EXPECT_EQ(by_status[i + 1], q->drops_by_reason(static_cast<DropReason>(i)))
        << to_string(static_cast<DropReason>(i));
  }
  EXPECT_EQ(tracer.dropped(), q->drops());
  EXPECT_EQ(tracer.open_count(), q->packet_count());

  // FLoc journals every drop: one kDrop record per drop, a = reason.
  if (floc != nullptr) {
    ASSERT_FALSE(tel.journal.overflowed());
    std::uint64_t journaled[kDropReasonCount] = {};
    for (const telemetry::DefenseEvent* e :
         tel.journal.of_kind(telemetry::EventKind::kDrop)) {
      ASSERT_LT(e->a, kDropReasonCount);
      EXPECT_EQ(e->component, "floc");
      ++journaled[e->a];
    }
    for (std::size_t i = 0; i < kDropReasonCount; ++i) {
      EXPECT_EQ(journaled[i], q->drops_by_reason(static_cast<DropReason>(i)))
          << to_string(static_cast<DropReason>(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, DropLedger, ::testing::ValuesIn(disciplines()),
    [](const ::testing::TestParamInfo<Discipline>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace floc
