#include "transport/tcp_sink.h"

#include <algorithm>
#include <bit>

#include "netsim/link.h"
#include "transport/flow_monitor.h"
#include "util/units.h"

namespace floc {

bool ReorderWindow::accept(std::uint64_t seq) {
  if (seq < next_expected_) return false;
  const std::uint64_t off = seq - next_expected_;
  const std::size_t word = static_cast<std::size_t>(off / 64);
  const std::uint64_t bit = std::uint64_t{1} << (off % 64);
  if (word < bits_.size() && (bits_[word] & bit) != 0) return false;
  if (off == 0) {
    advance();
    return true;
  }
  if (word >= bits_.size()) bits_.resize(word + 1, 0);
  bits_[word] |= bit;
  return true;
}

void ReorderWindow::advance() {
  // The run of consecutive received segments starting at the filled hole.
  std::uint64_t run = 1;
  if (!bits_.empty()) {
    bits_[0] |= 1;
    run = 0;
    for (const std::uint64_t w : bits_) {
      if (w != ~std::uint64_t{0}) {
        run += static_cast<std::uint64_t>(std::countr_one(w));
        break;
      }
      run += 64;
    }
    const std::size_t n = bits_.size();
    const std::size_t wshift = static_cast<std::size_t>(run / 64);
    const unsigned bshift = static_cast<unsigned>(run % 64);
    for (std::size_t i = 0; i + wshift < n; ++i) {
      std::uint64_t w = bits_[i + wshift] >> bshift;
      if (bshift != 0 && i + wshift + 1 < n) {
        w |= bits_[i + wshift + 1] << (64 - bshift);
      }
      bits_[i] = w;
    }
    bits_.resize(n - std::min(n, wshift));
    while (!bits_.empty() && bits_.back() == 0) bits_.pop_back();
  }
  next_expected_ += run;
}

TcpSink::TcpSink(Simulator* sim, Host* host, FlowMonitor* monitor)
    : sim_(sim), host_(host), monitor_(monitor) {
  host_->set_default_agent(this);
}

void TcpSink::reply(const Packet& data, PacketType type, std::uint64_t ack) {
  Packet p;
  p.flow = data.flow;
  p.src = host_->addr();
  p.dst = data.src;
  p.type = type;
  p.size_bytes = kAckPacketBytes;
  p.ack = ack;
  p.seq = data.seq;    // echo the delivered segment (SACK-style): cumulative
                       // ack alone freezes at the first hole for flows that
                       // never retransmit, hiding their delivered goodput
  p.cap0 = data.cap0;  // echo router-issued capability back to the client
  p.cap1 = data.cap1;
  p.sent_time = data.sent_time;  // lets the client time the exchange
  Link* out = host_->network()->next_hop(host_->id(), data.src);
  if (out) out->send(std::move(p));
}

void TcpSink::on_packet(Packet&& p) {
  switch (p.type) {
    case PacketType::kSyn: {
      flows_.try_emplace(p.flow);
      reply(p, PacketType::kSynAck, 0);
      break;
    }
    case PacketType::kData: {
      ReorderWindow& win = flows_[p.flow];
      if (!win.accept(p.seq)) {
        ++duplicates_;
      } else {
        ++delivered_packets_;
        if (monitor_) monitor_->on_deliver(p.flow, sim_->now(), p.size_bytes);
      }
      reply(p, PacketType::kAck, win.next_expected());
      break;
    }
    default:
      break;
  }
}

}  // namespace floc
