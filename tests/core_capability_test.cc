#include "core/capability.h"

#include <gtest/gtest.h>

#include <set>

namespace floc {
namespace {

Packet data_packet(HostAddr src, HostAddr dst, PathId path) {
  Packet p;
  p.flow = 42;
  p.src = src;
  p.dst = dst;
  p.path = path;
  return p;
}

TEST(Capability, IssueVerifyRoundTrip) {
  CapabilityIssuer issuer(0x5EC, 0);
  Packet p = data_packet(1, 2, PathId::of({3, 4}));
  const auto caps = issuer.issue(p.src, p.dst, p.path.key());
  p.cap0 = caps.cap0;
  p.cap1 = caps.cap1;
  EXPECT_TRUE(issuer.verify(p, p.path.key()));
}

TEST(Capability, ForgedCapabilityRejected) {
  CapabilityIssuer issuer(0x5EC, 0);
  Packet p = data_packet(1, 2, PathId::of({3, 4}));
  const auto caps = issuer.issue(p.src, p.dst, p.path.key());
  p.cap0 = caps.cap0 ^ 1;
  p.cap1 = caps.cap1;
  EXPECT_FALSE(issuer.verify(p, p.path.key()));
}

TEST(Capability, BoundToSourceDestinationAndPath) {
  CapabilityIssuer issuer(0x5EC, 0);
  const PathId path = PathId::of({3, 4});
  const auto caps = issuer.issue(1, 2, path.key());

  Packet other_src = data_packet(9, 2, path);
  other_src.cap0 = caps.cap0;
  other_src.cap1 = caps.cap1;
  EXPECT_FALSE(issuer.verify(other_src, other_src.path.key()));

  Packet other_dst = data_packet(1, 9, path);
  other_dst.cap0 = caps.cap0;
  other_dst.cap1 = caps.cap1;
  EXPECT_FALSE(issuer.verify(other_dst, other_dst.path.key()));

  Packet other_path = data_packet(1, 2, PathId::of({3, 5}));
  other_path.cap0 = caps.cap0;
  other_path.cap1 = caps.cap1;
  EXPECT_FALSE(issuer.verify(other_path, other_path.path.key()));
}

TEST(Capability, DifferentSecretsDiffer) {
  CapabilityIssuer a(111, 0), b(222, 0);
  const auto ca = a.issue(1, 2, PathId::of({3}).key());
  const auto cb = b.issue(1, 2, PathId::of({3}).key());
  EXPECT_NE(ca.cap0, cb.cap0);
}

TEST(Capability, SlotsInRange) {
  CapabilityIssuer issuer(0x5EC, 4);
  for (HostAddr d = 1; d < 100; ++d) {
    const int s = issuer.slot_of(d);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(Capability, SlotsRoughlyUniform) {
  CapabilityIssuer issuer(0x5EC, 4);
  int counts[4] = {};
  for (HostAddr d = 1; d <= 4000; ++d) counts[issuer.slot_of(d)]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(Capability, AccountingKeyCollapsesHighFanout) {
  // With n_max slots, a source's flows to many destinations share at most
  // n_max accounting keys (Section IV-B.3).
  const int n_max = 2;
  CapabilityIssuer issuer(0x5EC, n_max);
  std::set<std::uint64_t> keys;
  for (HostAddr d = 1; d <= 20; ++d) {
    Packet p = data_packet(7, d, PathId::of({3}));
    p.flow = 1000 + d;  // all distinct transport flows
    keys.insert(issuer.accounting_key(p));
  }
  EXPECT_LE(keys.size(), static_cast<std::size_t>(n_max));
}

TEST(Capability, AccountingKeyDistinctAcrossSources) {
  CapabilityIssuer issuer(0x5EC, 2);
  Packet a = data_packet(1, 5, PathId::of({3}));
  Packet b = data_packet(2, 5, PathId::of({3}));
  EXPECT_NE(issuer.accounting_key(a), issuer.accounting_key(b));
}

TEST(Capability, NoSlotsUsesFlowId) {
  CapabilityIssuer issuer(0x5EC, 0);
  Packet p = data_packet(1, 2, PathId::of({3}));
  p.flow = 777;
  EXPECT_EQ(issuer.accounting_key(p), 777u);
}

TEST(Capability, ZeroReservedAsNoCapability) {
  // Issued capabilities never collide with the "no capability" marker 0.
  CapabilityIssuer issuer(0x5EC, 2);
  for (HostAddr s = 1; s < 200; ++s) {
    const auto caps = issuer.issue(s, s + 1, PathId::of({s % 7 + 1}).key());
    EXPECT_NE(caps.cap0, 0u);
    EXPECT_NE(caps.cap1, 0u);
  }
}

}  // namespace
}  // namespace floc
