// Golden-trace determinism test (ISSUE 5, satellite 1).
//
// Runs a shrunk fig06 attack-confinement sweep (three attack cases, FLoc on
// the Fig. 5 tree) through the ScenarioRunner and hashes every derived
// artifact per run: the defense-event journal dump and the causal-span CSV.
// The parallel sweep (--jobs 8) must be byte-identical to the serial golden
// baseline (--jobs 1), and repeating the parallel sweep with the same master
// seed must reproduce the same hashes — i.e. no simulated byte depends on
// thread scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runner/scenario_runner.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "telemetry/tracing.h"
#include "topology/tree_scenario.h"
#include "util/seed.h"
#include "util/siphash.h"

namespace floc {
namespace {

constexpr std::uint64_t kMaster = 42;
constexpr SipKey kHashKey{0x464C6F6347544431ULL, 0x474F4C44454E5452ULL};

std::uint64_t hash_bytes(const std::string& s) {
  return siphash24(kHashKey,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()));
}

struct CaseHashes {
  std::uint64_t seed = 0;
  std::uint64_t journal_hash = 0;  // EventJournal::dump()
  std::uint64_t spans_hash = 0;    // telemetry::spans_csv()
  std::uint64_t journal_events = 0;
  std::uint64_t spans = 0;
};

// A shrunk fig06 case: one fully isolated world per run — own Simulator +
// Rng (seeded from the derived per-run seed), own Telemetry and Tracer.
CaseHashes run_case(AttackType attack, std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.scale = 0.05;
  cfg.duration = 12.0;
  cfg.measure_start = 6.0;
  cfg.measure_end = 12.0;
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
  s.floc_queue()->attach_telemetry(&tel);
  telemetry::Tracer tracer(std::size_t{1} << 12);
  s.attach_tracer(&tracer);

  s.run();

  CaseHashes h;
  h.seed = seed;
  const std::string journal = tel.journal.dump();
  const std::string spans = telemetry::spans_csv(tracer);
  h.journal_hash = hash_bytes(journal);
  h.spans_hash = hash_bytes(spans);
  h.journal_events = tel.journal.total();
  h.spans = tracer.spans().size();
  return h;
}

std::vector<CaseHashes> sweep(int jobs) {
  const AttackType attacks[] = {AttackType::kTcpPopulation, AttackType::kCbr,
                                AttackType::kShrew};
  return runner::run_indexed<CaseHashes>(jobs, 3, [&](std::size_t i) {
    return run_case(attacks[i],
                    derive_seed(kMaster, i, kSeedStreamTreeScenario));
  });
}

TEST(GoldenTrace, ParallelSweepMatchesSerialByteForByte) {
  const auto serial = sweep(1);    // the golden baseline: literally serial
  const auto parallel = sweep(8);  // same sweep on a contended 8-wide pool
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed) << "case " << i;
    EXPECT_EQ(serial[i].journal_hash, parallel[i].journal_hash)
        << "case " << i << ": event journal diverged across --jobs";
    EXPECT_EQ(serial[i].spans_hash, parallel[i].spans_hash)
        << "case " << i << ": span trace diverged across --jobs";
    EXPECT_EQ(serial[i].journal_events, parallel[i].journal_events);
    EXPECT_EQ(serial[i].spans, parallel[i].spans);
  }
  // The shrunk scenario still exercises the full defense + tracing stack.
  for (const auto& h : serial) {
    EXPECT_GT(h.journal_events, 0u);
    EXPECT_GT(h.spans, 0u);
  }
}

TEST(GoldenTrace, RepeatedParallelSweepsReproduce) {
  const auto first = sweep(8);
  const auto second = sweep(8);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].journal_hash, second[i].journal_hash) << "case " << i;
    EXPECT_EQ(first[i].spans_hash, second[i].spans_hash) << "case " << i;
  }
}

// Distinct derived case seeds must actually produce distinct worlds — a
// regression guard against the hash comparisons passing vacuously because
// every case collapsed onto one seed.
TEST(GoldenTrace, CasesAreDistinctWorlds) {
  const auto runs = sweep(1);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      EXPECT_NE(runs[i].seed, runs[j].seed);
      EXPECT_NE(runs[i].journal_hash, runs[j].journal_hash);
    }
  }
}

}  // namespace
}  // namespace floc
