// Queue-discipline interface: the pluggable policy at a link's egress port.
//
// FLoc, RED, RED-PD, Pushback and drop-tail all implement this interface, so
// an experiment swaps defense schemes by swapping the queue attached to the
// flooded link.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "netsim/packet.h"
#include "netsim/packet_fifo.h"
#include "util/units.h"

namespace floc {

namespace json {
class JsonWriter;
}
namespace telemetry {
class EventJournal;
class MetricRegistry;
class Tracer;
}

// Reasons a queue discipline may drop a packet; recorded for diagnostics.
enum class DropReason : std::uint8_t {
  kQueueFull,       // buffer exhausted
  kToken,           // token-bucket admission failure (FLoc)
  kPreferential,    // identified attack flow penalized (FLoc / RED-PD)
  kRandomEarly,     // probabilistic early drop (RED / FLoc congested mode)
  kRateLimit,       // aggregate rate limiter (Pushback)
  kCapability,      // invalid / over-limit capability (FLoc covert defense)
  kBlacklist,       // sender on the FLoc offender blacklist (hardening)
  kOverload,        // non-capability data shed in FLoc overload mode
};
inline constexpr std::size_t kDropReasonCount = 8;

// Span status codes for packets that end their queue residency without a
// queue verdict (docs/INTERNALS.md, "Drop ledger"): discarded by a downed
// link's drain, or flushed by a router reboot. Verdict drops use the
// DropReason ordinal + 1, so these sit just above that range.
inline constexpr std::uint32_t kSpanStatusLinkDown = kDropReasonCount + 1;
inline constexpr std::uint32_t kSpanStatusFlushed = kDropReasonCount + 2;

const char* to_string(DropReason r);
// Inverse of to_string; returns false (and leaves *out alone) for unknown
// names. Round-tripped exhaustively in tests.
bool from_string(const std::string& name, DropReason* out);

class QueueDisc {
 public:
  virtual ~QueueDisc() = default;

  // Offer a packet at time `now`; returns true if buffered, false if dropped.
  // The queue owns `p` either way: an admitted packet's slot is linked into
  // the queue, a dropped one returns to the slab when `p` dies.
  // Implementations must record every drop through note_drop().
  virtual bool enqueue(PacketRef p, TimeSec now) = 0;

  // Hand the next packet to transmit (its slot) to the caller, or an empty
  // ref if the queue is empty.
  virtual PacketRef dequeue(TimeSec now) = 0;

  virtual bool empty() const = 0;
  virtual std::size_t packet_count() const = 0;
  virtual std::size_t byte_count() const = 0;

  // Self-check of internal invariants (byte accounting, token bounds, ...)
  // for the SimMonitor (src/faultsim). Returns false and fills `why` on a
  // violation; the default has nothing to check.
  virtual bool audit(TimeSec now, std::string* why) const {
    (void)now;
    (void)why;
    return true;
  }

  // Publish the discipline's state as polled gauges under `prefix`: the
  // shared queue gauges, then (register_drop_gauges) one per DropReason.
  // Overrides add scheme-specific gauges between the two. Registration-time
  // only — nothing on the packet path.
  virtual void register_metrics(telemetry::MetricRegistry& reg,
                                const std::string& prefix) const;

  // Dump the discipline's full decision state as one JSON object into `w`,
  // for incident bundles (src/telemetry/flight_recorder). `now` lets
  // time-dependent state (token levels, blacklist sentences) be rendered at
  // the capture instant without mutating anything. The base emits the
  // counters every scheme shares; overrides must emit a complete picture of
  // their verdict state. Capture-time only — never on the packet path — and
  // must iterate internal maps in sorted key order so bundles stay
  // byte-identical across --jobs (see docs/INTERNALS.md).
  virtual void snapshot_state(json::JsonWriter& w, TimeSec now) const;

  // Attach causal span tracing. A traced drop (any scheme, any reason)
  // terminates the packet's queue span with the DropReason — note_drop() is
  // the only tracing touchpoint the baseline disciplines need.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }

  // The drop ledger: note_drop() is the only writer of these counters.
  std::uint64_t drops() const;
  std::uint64_t drops_by_reason(DropReason r) const {
    return by_reason_[static_cast<std::size_t>(r)];
  }
  std::uint64_t admissions() const { return admissions_; }

 protected:
  // Record one drop: count it by reason, journal it (when a journal is
  // attached) and end its queue span with status = reason ordinal + 1 (when
  // traced). Every discipline's every drop goes through here.
  void note_drop(const Packet& p, DropReason r, TimeSec now) {
    ++by_reason_[static_cast<std::size_t>(r)];
    if (journal_ != nullptr) log_drop(p, r, now);
    if (tracer_ != nullptr && p.span.active()) trace_drop(p, r, now);
  }
  void note_admit() { ++admissions_; }

  // "<prefix>.packets", ".bytes", ".drops" (total), ".admissions".
  void register_queue_gauges(telemetry::MetricRegistry& reg,
                             const std::string& prefix) const;
  // "<prefix>.drops.<reason>" for every DropReason, in ordinal order.
  void register_drop_gauges(telemetry::MetricRegistry& reg,
                            const std::string& prefix) const;

  // Journal every drop as a kDrop event (a = DropReason ordinal, value =
  // packet bytes). Null detaches.
  void set_journal(telemetry::EventJournal* journal) { journal_ = journal; }
  telemetry::EventJournal* journal() const { return journal_; }
  telemetry::Tracer* tracer() const { return tracer_; }

 private:
  // Out-of-line slow paths; callers gate on the pointer.
  void log_drop(const Packet& p, DropReason r, TimeSec now);
  void trace_drop(const Packet& p, DropReason r, TimeSec now);

  telemetry::EventJournal* journal_ = nullptr;
  telemetry::Tracer* tracer_ = nullptr;
  std::uint64_t by_reason_[kDropReasonCount] = {};
  std::uint64_t admissions_ = 0;
};

}  // namespace floc
