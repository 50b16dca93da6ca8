// Profiler unit tests: section get-or-create and ScopedTimer accounting.
#include <gtest/gtest.h>

#include "telemetry/profiler.h"

namespace floc::telemetry {
namespace {

TEST(Profiler, SectionIsGetOrCreateWithStablePointers) {
  Profiler prof;
  Profiler::Section* enq = prof.section("enqueue");
  Profiler::Section* deq = prof.section("dequeue");
  ASSERT_NE(enq, nullptr);
  ASSERT_NE(deq, nullptr);
  EXPECT_NE(enq, deq);
  EXPECT_EQ(prof.section("enqueue"), enq);
  EXPECT_EQ(prof.sections().size(), 2u);
  EXPECT_EQ(enq->name, "enqueue");
  EXPECT_EQ(enq->calls, 0u);
}

TEST(Profiler, RecordAndScopedTimerAccumulate) {
  Profiler prof;
  Profiler::Section* s = prof.section("work");
  s->record(100);
  s->record(50);
  EXPECT_EQ(s->calls, 2u);
  EXPECT_EQ(s->total_ns, 150u);

  { ScopedTimer t(s); }
  EXPECT_EQ(s->calls, 3u);  // real clock delta added, >= 0

  // Null section: the no-op fast path.
  { ScopedTimer t(nullptr); }
  EXPECT_EQ(prof.section("work")->calls, 3u);
}

}  // namespace
}  // namespace floc::telemetry
