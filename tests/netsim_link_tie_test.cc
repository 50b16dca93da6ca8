// Link timing at exact ties: two equal-rate links in series fed at exactly
// line rate, so every arrival lands on the instant the previous packet
// finishes serializing (busy_until). Times are dyadic (tx = 2^-10 s, delay
// = 2^-8 s), so every expected value below is exact.
//
// Whether an arrival at that instant finds the link busy depends on the
// (time, seq) slot reserved for the tx-done event, not on the time alone:
// an event that was queued before the transmission started sorts ahead of
// the slot and sees a busy link, one queued after it sees a free link. The
// delivery times are the same either way; the queue lengths are not.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/drop_tail.h"
#include "netsim/link.h"
#include "netsim/node.h"

namespace floc {
namespace {

constexpr int kBytes = 1000;
constexpr BitsPerSec kRate = 8'192'000.0;  // kBytes serialize in 2^-10 s
constexpr TimeSec kTx = 1.0 / 1024;
constexpr TimeSec kDelay = 1.0 / 256;
constexpr int kPackets = 50;
static_assert(transmission_time(kBytes, kRate) == kTx);

// Records each arrival's time and sequence number.
struct Sink : Node {
  Sink() : Node(nullptr, 2, "sink") {}
  void receive(PacketRef p) override {
    at.push_back(p->seq);
    times.push_back(now());
  }
  TimeSec now() const { return sim->now(); }
  Simulator* sim = nullptr;
  std::vector<std::uint64_t> at;
  std::vector<TimeSec> times;
};

// Forwards every arrival onto `out` and records that link's queue length
// right after the hand-off.
struct Relay : Node {
  Relay() : Node(nullptr, 1, "relay") {}
  void receive(PacketRef p) override {
    out->send(std::move(p));
    queued.push_back(out->queue().packet_count());
  }
  Link* out = nullptr;
  std::vector<std::size_t> queued;
};

struct Line {
  Line() {
    sink.sim = &sim;
    second = std::make_unique<Link>(&sim, &sink, kRate, kDelay,
                                    std::make_unique<DropTailQueue>(100));
    relay.out = second.get();
    first = std::make_unique<Link>(&sim, &relay, kRate, kDelay,
                                   std::make_unique<DropTailQueue>(100));
  }

  void offer(std::uint64_t seq) {
    Packet p;
    p.size_bytes = kBytes;
    p.seq = seq;
    first->send(std::move(p));
    offered_queue.push_back(first->queue().packet_count());
  }

  Simulator sim;
  Sink sink;
  Relay relay;
  std::unique_ptr<Link> second;
  std::unique_ptr<Link> first;
  std::vector<std::size_t> offered_queue;  // first link, after each offer
};

// Packet k leaves the source at k·tx and reaches the sink two
// serializations and two propagation delays later.
void expect_line_rate_deliveries(const Line& line) {
  ASSERT_EQ(line.sink.at.size(), static_cast<std::size_t>(kPackets));
  for (int k = 0; k < kPackets; ++k) {
    EXPECT_EQ(line.sink.at[k], static_cast<std::uint64_t>(k));
    EXPECT_EQ(line.sink.times[k], (k + 2) * kTx + 2 * kDelay) << "packet " << k;
  }
  EXPECT_EQ(line.first->packets_sent(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(line.second->packets_sent(), static_cast<std::uint64_t>(kPackets));
}

TEST(LinkTie, ArrivalQueuedBeforeTheTransmissionWaitsForTxDone) {
  // All offers are scheduled up front, so each one's seq is below the
  // tx-done slot the previous packet reserves: at k·tx the link is still
  // busy, the packet queues, and a tx-done event at that same instant
  // starts it. The relay's hand-off is a delivery scheduled when the first
  // link started the packet, which is before the second link reserved the
  // slot it is tied with, so the second link queues every packet too.
  Line line;
  for (int k = 0; k < kPackets; ++k) {
    line.sim.schedule_at(k * kTx, [&line, k] { line.offer(k); });
  }
  line.sim.run();
  expect_line_rate_deliveries(line);
  for (int k = 0; k < kPackets; ++k) {
    const std::size_t want = k == 0 ? 0 : 1;
    EXPECT_EQ(line.offered_queue[k], want) << "offer " << k;
    EXPECT_EQ(line.relay.queued[k], want) << "relay " << k;
  }
  // Offers, deliveries on both links, and one tx-done per waiting packet.
  EXPECT_EQ(line.sim.events_processed(),
            static_cast<std::uint64_t>(kPackets + 2 * kPackets +
                                       2 * (kPackets - 1)));
}

// Offers packet k, then schedules offer k + 1 one serialization later.
struct Pacer {
  Line* line;
  int k;
  void operator()() const {
    line->offer(static_cast<std::uint64_t>(k));
    if (k + 1 < kPackets) line->sim.schedule_in(kTx, Pacer{line, k + 1});
  }
};

TEST(LinkTie, ArrivalQueuedAfterTheTransmissionFindsTheLinkFree) {
  // Each offer schedules the next after its packet reserved the tx-done
  // slot, so at (k+1)·tx the slot has passed and the packet starts at once.
  // The relay's ties stay as above: the second link still queues.
  Line line;
  line.sim.schedule_at(0.0, Pacer{&line, 0});
  line.sim.run();
  expect_line_rate_deliveries(line);
  for (int k = 0; k < kPackets; ++k) {
    EXPECT_EQ(line.offered_queue[k], 0u) << "offer " << k;
    EXPECT_EQ(line.relay.queued[k], k == 0 ? 0u : 1u) << "relay " << k;
  }
  // The first link is an idle hop: one event (the delivery) per packet.
  EXPECT_EQ(line.sim.events_processed(),
            static_cast<std::uint64_t>(kPackets + 2 * kPackets +
                                       (kPackets - 1)));
}

TEST(LinkTie, WireHoldsPacketsInFlight) {
  // Offered in one burst before the run: the first link sends back to back,
  // and with propagation four serializations long its wire holds several
  // packets at once. They still land in transmit order, each exactly tx
  // after the one before.
  Line line;
  for (int k = 0; k < kPackets; ++k) line.offer(k);
  line.sim.run();
  ASSERT_EQ(line.sink.at.size(), static_cast<std::size_t>(kPackets));
  for (int k = 0; k < kPackets; ++k) {
    EXPECT_EQ(line.sink.at[k], static_cast<std::uint64_t>(k));
    EXPECT_EQ(line.sink.times[k], (k + 2) * kTx + 2 * kDelay) << "packet " << k;
  }
}

}  // namespace
}  // namespace floc
