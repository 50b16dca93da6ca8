#include "netsim/packet_fifo.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace floc {

PacketSlab& PacketSlab::local() {
  thread_local PacketSlab slab;
  return slab;
}

PacketSlab::~PacketSlab() {
  // Hand the chunks back to the allocator unpoisoned.
  for (const auto& chunk : chunks_) {
    for (std::size_t i = 0; i < kChunkSlots; ++i) unpoison(&chunk[i]);
  }
}

void PacketSlab::grow() {
  auto chunk = std::make_unique<PacketSlot[]>(kChunkSlots);
  // Thread the new slots onto the free list in address order, so a queue
  // filling from empty walks its chunk sequentially.
  for (std::size_t i = 0; i + 1 < kChunkSlots; ++i) {
    chunk[i].next = &chunk[i + 1];
  }
  chunk[kChunkSlots - 1].next = free_;
  poison_chain(&chunk[0], &chunk[kChunkSlots - 1]);
  free_ = &chunk[0];
  free_count_ += kChunkSlots;
  chunks_.push_back(std::move(chunk));
}

#if defined(__SANITIZE_ADDRESS__)
// Only the Packet is poisoned: the free list runs through `next`.
void PacketSlab::unpoison(PacketSlot* s) {
  ASAN_UNPOISON_MEMORY_REGION(&s->pkt, sizeof(Packet));
}

void PacketSlab::poison_chain(PacketSlot* first, PacketSlot* last) {
  for (PacketSlot* s = first;; s = s->next) {
    ASAN_POISON_MEMORY_REGION(&s->pkt, sizeof(Packet));
    if (s == last) break;
  }
}
#endif

}  // namespace floc
