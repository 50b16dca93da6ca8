// Exhaustive to_string/from_string round-trips for every observability enum:
// DropReason, journal EventKind, tracing SpanKind, and the scenario
// AttackType. Each enum carries a k*Count constant; iterating [0, count)
// catches a newly added enumerator whose to_string case was forgotten (it
// would print "?" and fail the round-trip), and unknown names must be
// rejected without touching *out.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "netsim/queue_disc.h"
#include "telemetry/event_journal.h"
#include "telemetry/tracing.h"
#include "topology/tree_scenario.h"

namespace floc {
namespace {

// Shared exhaustive round-trip: every ordinal prints a unique, non-"?" name
// and parses back to itself; garbage names are rejected and leave the
// output enum untouched.
template <typename E, typename ToString, typename FromString>
void check_round_trip(std::size_t count, ToString&& to_str,
                      FromString&& from_str) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < count; ++i) {
    const E e = static_cast<E>(i);
    const std::string name = to_str(e);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "missing to_string case for ordinal " << i;
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate name '" << name << "' at ordinal " << i;

    E parsed = static_cast<E>(count - 1 - i);  // some other value
    ASSERT_TRUE(from_str(name, &parsed)) << name;
    EXPECT_EQ(parsed, e) << name;
  }
  for (const char* bogus : {"", "?", "nonsense", "Drop", "QUEUE"}) {
    E sentinel = static_cast<E>(0);
    EXPECT_FALSE(from_str(bogus, &sentinel)) << bogus;
    EXPECT_EQ(sentinel, static_cast<E>(0)) << "*out modified for " << bogus;
  }
}

TEST(EnumStrings, DropReasonRoundTrips) {
  check_round_trip<DropReason>(
      kDropReasonCount, [](DropReason r) { return to_string(r); },
      [](const std::string& s, DropReason* out) { return from_string(s, out); });
}

TEST(EnumStrings, EventKindRoundTrips) {
  check_round_trip<telemetry::EventKind>(
      telemetry::kEventKindCount,
      [](telemetry::EventKind k) { return telemetry::to_string(k); },
      [](const std::string& s, telemetry::EventKind* out) {
        return telemetry::from_string(s, out);
      });
}

TEST(EnumStrings, AttackTypeRoundTrips) {
  check_round_trip<AttackType>(
      kAttackTypeCount, [](AttackType a) { return to_string(a); },
      [](const std::string& s, AttackType* out) { return from_string(s, out); });
}

TEST(EnumStrings, SpanKindRoundTrips) {
  check_round_trip<telemetry::SpanKind>(
      telemetry::kSpanKindCount,
      [](telemetry::SpanKind k) { return telemetry::to_string(k); },
      [](const std::string& s, telemetry::SpanKind* out) {
        return telemetry::from_string(s, out);
      });
}

// The specific names are load-bearing: exporters and the CSV schema use
// them, so renames must be deliberate.
TEST(EnumStrings, LoadBearingNamesStayStable) {
  EXPECT_STREQ(to_string(DropReason::kQueueFull), "queue-full");
  EXPECT_STREQ(telemetry::to_string(telemetry::SpanKind::kLinkTx), "link.tx");
  EXPECT_STREQ(telemetry::to_string(telemetry::SpanKind::kQueue), "queue");
}

}  // namespace
}  // namespace floc
