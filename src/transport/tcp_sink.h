// Server-side endpoint: answers SYNs (echoing router-issued capabilities),
// generates cumulative ACKs for data (each also echoing the delivered
// segment's seq, SACK-style), and reports delivered goodput to a
// FlowMonitor. One sink instance serves every flow addressed to its host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netsim/network.h"
#include "netsim/node.h"
#include "netsim/simulator.h"

namespace floc {

class FlowMonitor;

// One flow's receive sequence state: the next in-order segment plus a bitmap
// of the segments already received beyond it. Bit i stands for
// next_expected() + i (bit 0, the hole itself, is always clear). Filling the
// hole shifts the delivered run out of the bitmap and trailing zero words
// are trimmed, so it spans exactly up to the highest buffered segment: one
// bit per segment for flows that never retransmit (CBR, shrew), whose
// next_expected stays frozen at their first loss.
class ReorderWindow {
 public:
  // Record an arriving segment; false if it was already delivered or
  // buffered (a duplicate).
  bool accept(std::uint64_t seq);

  std::uint64_t next_expected() const { return next_expected_; }
  std::size_t words() const { return bits_.size(); }

 private:
  void advance();  // hole filled: shift out the in-order run

  std::uint64_t next_expected_ = 0;
  std::vector<std::uint64_t> bits_;
};

class TcpSink : public Agent {
 public:
  TcpSink(Simulator* sim, Host* host, FlowMonitor* monitor = nullptr);

  void on_packet(Packet&& p) override;

  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t duplicate_packets() const { return duplicates_; }

 private:
  void reply(const Packet& data, PacketType type, std::uint64_t ack);

  Simulator* sim_;
  Host* host_;
  FlowMonitor* monitor_;
  std::unordered_map<FlowId, ReorderWindow> flows_;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace floc
