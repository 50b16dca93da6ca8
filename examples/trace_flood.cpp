// Packet-level drop tracing of a flooded link.
//
// Floods a FLoc-defended link through a tiny topology with a causal span
// tracer attached and prints (a) drop totals per reason from the queue's drop
// ledger, (b) drops per flow class and (c) the last few drops, both read from
// the tracer's dropped queue spans — the raw material for debugging a
// defense policy. Exits nonzero if the per-reason totals do not add up to the
// queue's drop count, or (when the tracer kept every span) the dropped spans
// do not either.
//
//   $ ./trace_flood [max_lines]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "telemetry/tracing.h"
#include "topology/tree_scenario.h"

using namespace floc;

int main(int argc, char** argv) {
  const int max_lines = argc > 1 ? std::atoi(argv[1]) : 12;

  TreeScenarioConfig cfg;
  cfg.tree_degree = 2;
  cfg.tree_height = 1;
  cfg.legit_per_leaf = 3;
  cfg.attack_leaf_count = 1;
  cfg.attack_per_leaf = 6;
  cfg.attack = AttackType::kCbr;
  cfg.attack_rate = mbps(2.0);
  cfg.target_link = mbps(10);
  cfg.scheme = DefenseScheme::kFloc;
  cfg.duration = 20.0;
  cfg.measure_start = 5.0;
  cfg.measure_end = 20.0;
  TreeScenario scenario(cfg);

  telemetry::Tracer tracer;
  scenario.attach_tracer(&tracer);
  scenario.run();

  // (a) The drop ledger: one counter per DropReason, summing to drops().
  const QueueDisc& q = scenario.bottleneck_queue();
  std::uint64_t ledger_sum = 0;
  std::printf("queue: %llu admitted, %llu dropped\n\ndrops by reason:\n",
              static_cast<unsigned long long>(q.admissions()),
              static_cast<unsigned long long>(q.drops()));
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const DropReason r = static_cast<DropReason>(i);
    const std::uint64_t n = q.drops_by_reason(r);
    ledger_sum += n;
    if (n > 0) {
      std::printf("  %-14s %8llu\n", to_string(r),
                  static_cast<unsigned long long>(n));
    }
  }

  // (b), (c) Dropped queue spans: status = DropReason ordinal + 1, trace =
  // flow id. The tracer ring keeps the newest spans; counts below cover the
  // retained ones.
  std::vector<const telemetry::Span*> drops;
  std::map<std::string, int> by_class;
  for (const telemetry::Span& s : tracer.spans()) {
    if (s.kind != telemetry::SpanKind::kQueue || s.status == 0 ||
        s.status > kDropReasonCount) {
      continue;
    }
    drops.push_back(&s);
    const auto& label = scenario.monitor().label(s.trace);
    by_class[label.cls == FlowClass::kAttack ? "attack" : "legit"]++;
  }
  std::printf("drops by flow class%s:\n",
              tracer.overflowed() ? " (newest spans only)" : "");
  for (const auto& [cls, n] : by_class)
    std::printf("  %-14s %8d\n", cls.c_str(), n);

  std::printf("\nlast %d drops:\n", max_lines);
  const std::size_t start =
      drops.size() > static_cast<std::size_t>(max_lines)
          ? drops.size() - static_cast<std::size_t>(max_lines)
          : 0;
  for (std::size_t i = start; i < drops.size(); ++i) {
    const telemetry::Span& s = *drops[i];
    std::printf("  t=%.6f flow=%llu bytes=%d %s\n", s.end,
                static_cast<unsigned long long>(s.trace), s.bytes,
                s.annot.c_str());
  }

  if (ledger_sum != q.drops()) {
    std::fprintf(stderr, "drop ledger: reasons sum to %llu, drops() is %llu\n",
                 static_cast<unsigned long long>(ledger_sum),
                 static_cast<unsigned long long>(q.drops()));
    return 1;
  }
  // Every packet offered to the traced link has a queue span, so with the
  // whole run retained each drop shows up as exactly one dropped span.
  if (!tracer.overflowed() && drops.size() != q.drops()) {
    std::fprintf(stderr, "drop ledger: %zu dropped spans, drops() is %llu\n",
                 drops.size(), static_cast<unsigned long long>(q.drops()));
    return 1;
  }
  return 0;
}
