// Network-layer capabilities (Sections III-A, IV-B.3).
//
// A router issues, during connection setup, an authenticated flow identifier
// verifiable only by itself:
//     C0 = Hash(IP_s, IP_d, S_i, K0)          — identifier authenticity
//     C1 = Hash(IP_s, F(IP_d), S_i, K1)       — covert-attack slot binding
// where F(.) maps destinations uniformly onto [0, n_max). C1 restricts each
// source to n_max concurrently usable capability "slots" through this router
// and lets the router account the total bandwidth those slots consume: a
// source fanning out many low-rate flows collapses onto few slots and is
// handled as a single high-rate flow.
//
// Key rotation: the router may rotate its secret (scheduled hygiene or after
// suspected compromise). Sources hold capabilities issued under the old
// secret until their next SYN, so the issuer keeps the previous key set
// alive for a grace window: within it, old-key capabilities still verify
// (and the caller is told so it can re-stamp the packet); after it they are
// violations like any forgery.
#pragma once

#include <cstdint>

#include "netsim/packet.h"
#include "util/siphash.h"
#include "util/units.h"

namespace floc {

class CapabilityIssuer {
 public:
  // `n_max` = 0 disables slot accounting (C1 binds the exact destination).
  CapabilityIssuer(std::uint64_t secret, int n_max);

  struct Caps {
    std::uint64_t cap0 = 0;
    std::uint64_t cap1 = 0;
  };

  // Issue capabilities for a connection request (stamped into the SYN)
  // under the current key set; `path_key` is the request's PathId::key().
  Caps issue(HostAddr src, HostAddr dst, std::uint64_t path_key) const;

  // Verify the capabilities carried by a data packet against the current
  // key set only (no grace semantics). `path_key` is p.path.key().
  bool verify(const Packet& p, std::uint64_t path_key) const;

  enum class VerifyResult {
    kOk,          // verifies under the current keys
    kOkPrevious,  // verifies only under the pre-rotation keys (in grace)
    kFail,        // verifies under neither applicable key set
  };

  // Time-aware verification honoring the rotation grace window.
  VerifyResult verify_at(const Packet& p, std::uint64_t path_key,
                         TimeSec now) const;

  // Install a new secret at `now`; capabilities issued under the previous
  // secret keep verifying until `now + grace_window`.
  void rotate(std::uint64_t new_secret, TimeSec now, TimeSec grace_window);
  bool in_grace(TimeSec now) const { return now < grace_until_; }
  std::uint64_t rotations() const { return rotations_; }

  // Capability slot F(IP_d) of a destination for the given source.
  int slot_of(HostAddr dst) const;

  // Accounting-flow key: with slots enabled, all flows of `src` whose
  // destinations share a slot map to one key; otherwise the transport flow.
  // Keyed by the current secret, so rotation also re-keys accounting flows.
  std::uint64_t accounting_key(const Packet& p) const;

  int n_max() const { return n_max_; }

 private:
  struct KeySet {
    SipKey k0;
    SipKey k1;
    SipKey kf;  // key of the slot-mapping function F
  };
  static KeySet derive_keys(std::uint64_t secret);

  Caps issue_with(const KeySet& keys, HostAddr src, HostAddr dst,
                  std::uint64_t path_key) const;

  KeySet keys_;           // current
  KeySet prev_keys_;      // pre-rotation (valid while in grace)
  TimeSec grace_until_ = -1.0;
  std::uint64_t rotations_ = 0;
  int n_max_;
};

}  // namespace floc
