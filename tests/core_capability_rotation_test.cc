// Capability-key rotation: the dual-secret grace window (old-key words keep
// verifying for one control interval, during which misses are re-stamped
// instead of dropped) and its hard edge (after the window, pre-rotation
// capabilities are violations like any forgery).
#include <gtest/gtest.h>

#include "core/capability.h"
#include "core/floc_queue.h"

namespace floc {
namespace {

Packet capped_data(std::uint64_t cap0, std::uint64_t cap1) {
  Packet p;
  p.flow = 1;
  p.src = 1;
  p.dst = 99;
  p.path = PathId::of({1, 2});
  p.type = PacketType::kData;
  p.cap0 = cap0;
  p.cap1 = cap1;
  return p;
}

TEST(CapabilityRotation, IssuerGraceWindowSemantics) {
  CapabilityIssuer issuer(0xAAAAULL, /*n_max=*/0);
  const std::uint64_t key = PathId::of({1, 2}).key();  // capped_data's path
  const auto old_caps = issuer.issue(1, 99, key);
  Packet old_pkt = capped_data(old_caps.cap0, old_caps.cap1);
  ASSERT_EQ(issuer.verify_at(old_pkt, key, 0.0),
            CapabilityIssuer::VerifyResult::kOk);
  EXPECT_FALSE(issuer.in_grace(0.0));

  issuer.rotate(0xBBBBULL, /*now=*/10.0, /*grace_window=*/0.25);
  EXPECT_EQ(issuer.rotations(), 1u);
  EXPECT_TRUE(issuer.in_grace(10.1));

  // Old words: previous-keys verdict inside the window, failure past it.
  EXPECT_EQ(issuer.verify_at(old_pkt, key, 10.1),
            CapabilityIssuer::VerifyResult::kOkPrevious);
  EXPECT_FALSE(issuer.verify(old_pkt, key));  // current keys only: fails now
  EXPECT_FALSE(issuer.in_grace(10.25));
  EXPECT_EQ(issuer.verify_at(old_pkt, key, 10.25),
            CapabilityIssuer::VerifyResult::kFail);

  // Fresh issues are under the new secret and unaffected by the window.
  const auto new_caps = issuer.issue(1, 99, key);
  EXPECT_NE(new_caps.cap0, old_caps.cap0);
  Packet new_pkt = capped_data(new_caps.cap0, new_caps.cap1);
  EXPECT_EQ(issuer.verify_at(new_pkt, key, 10.1),
            CapabilityIssuer::VerifyResult::kOk);
  EXPECT_EQ(issuer.verify_at(new_pkt, key, 99.0),
            CapabilityIssuer::VerifyResult::kOk);

  // A second rotation invalidates the first-generation words immediately
  // (only one previous key set is kept).
  issuer.rotate(0xCCCCULL, 20.0, 0.25);
  EXPECT_EQ(issuer.rotations(), 2u);
  EXPECT_EQ(issuer.verify_at(old_pkt, key, 20.1),
            CapabilityIssuer::VerifyResult::kFail);
  EXPECT_EQ(issuer.verify_at(new_pkt, key, 20.1),
            CapabilityIssuer::VerifyResult::kOkPrevious);
}

FlocConfig rot_cfg() {
  FlocConfig cfg;
  cfg.link_bandwidth = mbps(10);
  cfg.buffer_packets = 100;
  cfg.control_interval = 0.1;  // grace window = one control interval
  cfg.default_rtt = 0.05;
  cfg.enable_aggregation = false;
  return cfg;
}

// Fetch the capability words a FLoc queue stamps into a SYN.
CapabilityIssuer::Caps syn_caps(FlocQueue& q, TimeSec now) {
  Packet s;
  s.flow = 1;
  s.src = 1;
  s.dst = 99;
  s.path = PathId::of({1, 2});
  s.type = PacketType::kSyn;
  s.size_bytes = 40;
  EXPECT_TRUE(q.enqueue(std::move(s), now));
  auto out = q.dequeue(now);
  EXPECT_TRUE(out);
  return {out->cap0, out->cap1};
}

TEST(CapabilityRotation, QueueReissuesDuringGraceThenEnforces) {
  FlocQueue q(rot_cfg());
  const auto caps = syn_caps(q, 0.0);
  ASSERT_TRUE(q.enqueue(capped_data(caps.cap0, caps.cap1), 1.0));
  q.dequeue(1.0);
  ASSERT_EQ(q.capability_violations(), 0u);

  q.rotate_secret(0x5EC2E7ULL, /*now=*/2.0);  // grace until 2.1

  // Inside the window: the old-key packet is admitted and re-stamped under
  // the new secret instead of dropped.
  ASSERT_TRUE(q.enqueue(capped_data(caps.cap0, caps.cap1), 2.05));
  EXPECT_EQ(q.cap_reissues(), 1u);
  EXPECT_EQ(q.capability_violations(), 0u);
  auto restamped = q.dequeue(2.05);
  ASSERT_TRUE(restamped);
  EXPECT_NE(restamped->cap0, caps.cap0);
  EXPECT_TRUE(q.issuer().verify(*restamped, restamped->path.key()));

  // A flow that adopted the re-stamped words stays verifiable past the
  // window; one still echoing pre-rotation words is cut off.
  EXPECT_TRUE(
      q.enqueue(capped_data(restamped->cap0, restamped->cap1), 2.5));
  EXPECT_FALSE(q.enqueue(capped_data(caps.cap0, caps.cap1), 2.5));
  EXPECT_EQ(q.capability_violations(), 1u);
  EXPECT_EQ(q.drops_by_reason(DropReason::kCapability), 1u);
}

TEST(CapabilityRotation, CorruptedCapabilityIsViolationNotCrash) {
  FlocQueue q(rot_cfg());
  const auto caps = syn_caps(q, 0.0);

  // Single bit-flips anywhere in either word (what a corruption window
  // injects) are counted violations, never crashes or admissions.
  int rejected = 0;
  for (int bit = 0; bit < 64; bit += 7) {
    if (!q.enqueue(capped_data(caps.cap0 ^ (1ULL << bit), caps.cap1), 0.5)) {
      ++rejected;
    }
    if (!q.enqueue(capped_data(caps.cap0, caps.cap1 ^ (1ULL << bit)), 0.5)) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 20);
  EXPECT_EQ(q.capability_violations(), 20u);

  // During a rotation grace window the same corruption degrades to a
  // re-stamp (fail-open toward continuity); after it, violations again.
  q.rotate_secret(0xD00DULL, 1.0);
  EXPECT_TRUE(q.enqueue(capped_data(caps.cap0 ^ 1ULL, caps.cap1), 1.05));
  EXPECT_EQ(q.cap_reissues(), 1u);
  EXPECT_FALSE(q.enqueue(capped_data(caps.cap0 ^ 1ULL, caps.cap1), 1.2));
  EXPECT_EQ(q.capability_violations(), 21u);
}

}  // namespace
}  // namespace floc
