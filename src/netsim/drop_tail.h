// Plain FIFO drop-tail queue with a packet-count capacity.
#pragma once

#include "netsim/packet_fifo.h"
#include "netsim/queue_disc.h"

namespace floc {

class DropTailQueue : public QueueDisc {
 public:
  explicit DropTailQueue(std::size_t capacity_packets)
      : capacity_(capacity_packets) {}

  bool enqueue(PacketRef p, TimeSec now) override;
  PacketRef dequeue(TimeSec now) override;
  bool empty() const override { return q_.empty(); }
  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return q_.bytes(); }

 private:
  std::size_t capacity_;
  PacketFifo q_;
};

}  // namespace floc
