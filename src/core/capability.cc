#include "core/capability.h"

namespace floc {

CapabilityIssuer::KeySet CapabilityIssuer::derive_keys(std::uint64_t secret) {
  return KeySet{
      SipKey{secret, secret ^ 0xC0C0C0C0C0C0C0C0ULL},
      SipKey{secret ^ 0x1111111111111111ULL, secret ^ 0x2222222222222222ULL},
      SipKey{secret ^ 0xF0F0F0F0F0F0F0F0ULL, secret ^ 0x0F0F0F0F0F0F0F0FULL}};
}

CapabilityIssuer::CapabilityIssuer(std::uint64_t secret, int n_max)
    : keys_(derive_keys(secret)), prev_keys_(keys_), n_max_(n_max) {}

int CapabilityIssuer::slot_of(HostAddr dst) const {
  if (n_max_ <= 0) return 0;
  const std::uint64_t h =
      siphash24_words(keys_.kf, {static_cast<std::uint64_t>(dst)});
  return static_cast<int>(h % static_cast<std::uint64_t>(n_max_));
}

CapabilityIssuer::Caps CapabilityIssuer::issue_with(
    const KeySet& keys, HostAddr src, HostAddr dst,
    std::uint64_t path_key) const {
  Caps c;
  c.cap0 = siphash24_words(keys.k0, {static_cast<std::uint64_t>(src),
                                     static_cast<std::uint64_t>(dst),
                                     path_key});
  std::uint64_t dest_binding = static_cast<std::uint64_t>(dst);
  if (n_max_ > 0) {
    const std::uint64_t h =
        siphash24_words(keys.kf, {static_cast<std::uint64_t>(dst)});
    dest_binding = h % static_cast<std::uint64_t>(n_max_);
  }
  c.cap1 = siphash24_words(
      keys.k1, {static_cast<std::uint64_t>(src), dest_binding, path_key});
  // Hash output 0 is reserved to mean "no capability"; remap.
  if (c.cap0 == 0) c.cap0 = 1;
  if (c.cap1 == 0) c.cap1 = 1;
  return c;
}

CapabilityIssuer::Caps CapabilityIssuer::issue(HostAddr src, HostAddr dst,
                                               std::uint64_t path_key) const {
  return issue_with(keys_, src, dst, path_key);
}

bool CapabilityIssuer::verify(const Packet& p, std::uint64_t path_key) const {
  const Caps expect = issue_with(keys_, p.src, p.dst, path_key);
  return p.cap0 == expect.cap0 && p.cap1 == expect.cap1;
}

CapabilityIssuer::VerifyResult CapabilityIssuer::verify_at(
    const Packet& p, std::uint64_t path_key, TimeSec now) const {
  if (verify(p, path_key)) return VerifyResult::kOk;
  if (in_grace(now)) {
    const Caps old = issue_with(prev_keys_, p.src, p.dst, path_key);
    if (p.cap0 == old.cap0 && p.cap1 == old.cap1) return VerifyResult::kOkPrevious;
  }
  return VerifyResult::kFail;
}

void CapabilityIssuer::rotate(std::uint64_t new_secret, TimeSec now,
                              TimeSec grace_window) {
  prev_keys_ = keys_;
  keys_ = derive_keys(new_secret);
  grace_until_ = now + grace_window;
  ++rotations_;
}

std::uint64_t CapabilityIssuer::accounting_key(const Packet& p) const {
  if (n_max_ <= 0) return p.flow;
  // Key on (source, slot): a high-fanout source shares n_max keys.
  return siphash24_words(keys_.kf, {static_cast<std::uint64_t>(p.src),
                                    static_cast<std::uint64_t>(slot_of(p.dst)),
                                    0xACC0ULL});
}

}  // namespace floc
