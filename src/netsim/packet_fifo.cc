#include "netsim/packet_fifo.h"

namespace floc {

PacketSlab& PacketSlab::local() {
  thread_local PacketSlab slab;
  return slab;
}

void PacketSlab::grow() {
  auto chunk = std::make_unique<PacketSlot[]>(kChunkSlots);
  // Thread the new slots onto the free list in address order, so a queue
  // filling from empty walks its chunk sequentially.
  for (std::size_t i = 0; i + 1 < kChunkSlots; ++i) {
    chunk[i].next = &chunk[i + 1];
  }
  chunk[kChunkSlots - 1].next = free_;
  free_ = &chunk[0];
  free_count_ += kChunkSlots;
  chunks_.push_back(std::move(chunk));
}

}  // namespace floc
