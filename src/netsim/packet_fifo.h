// PacketFifo: the one packet buffer type behind every queue discipline.
//
// A FIFO is a doubly linked list of fixed-size slots drawn from a slab that
// all FIFOs of one thread share. A freed slot goes on the slab's free list
// and is never returned to malloc, so the slab grows only when the thread's
// total number of queued packets reaches a new high. Once it has, push/pop
// on any queue of that thread is allocation-free — without each queue
// keeping its own high-water buffer (see docs/INTERNALS.md, "Packet
// buffers").
//
// Thread affinity: a FIFO takes slots from the slab of the thread that
// constructed it, and must be used and destroyed on that thread (the way
// ScenarioRunner builds, runs and tears down each world on one worker).
// Nothing observable depends on slot addresses.
//
// The FIFO also keeps the byte total of its packets, so disciplines need no
// byte counter of their own.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "netsim/packet.h"

namespace floc {

// Slots hold packets by value and are recycled without running destructors.
static_assert(std::is_trivially_copyable_v<Packet> &&
                  std::is_trivially_destructible_v<Packet>,
              "PacketFifo slots recycle Packets without destructing them");

struct PacketSlot {
  Packet pkt;
  PacketSlot* prev = nullptr;
  PacketSlot* next = nullptr;
};

// Per-thread slot pool shared by every PacketFifo built on the thread.
class PacketSlab {
 public:
  static constexpr std::size_t kChunkSlots = 64;

  // The calling thread's slab.
  static PacketSlab& local();

  PacketSlab() = default;
  PacketSlab(const PacketSlab&) = delete;
  PacketSlab& operator=(const PacketSlab&) = delete;

  std::size_t capacity() const { return chunks_.size() * kChunkSlots; }
  std::size_t free_slots() const { return free_count_; }

 private:
  friend class PacketFifo;

  PacketSlot* acquire() {
    if (free_ == nullptr) grow();
    PacketSlot* s = free_;
    free_ = s->next;
    --free_count_;
    return s;
  }
  // Return the chain first..last (linked through `next`, `count` slots).
  void release(PacketSlot* first, PacketSlot* last, std::size_t count) {
    last->next = free_;
    free_ = first;
    free_count_ += count;
  }
  void grow();

  std::vector<std::unique_ptr<PacketSlot[]>> chunks_;
  PacketSlot* free_ = nullptr;
  std::size_t free_count_ = 0;
};

class PacketFifo {
 public:
  // In-order, read-only traversal (audits and state dumps).
  class const_iterator {
   public:
    explicit const_iterator(const PacketSlot* s) : s_(s) {}
    const Packet& operator*() const { return s_->pkt; }
    const_iterator& operator++() {
      s_ = s_->next;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return s_ == o.s_; }

   private:
    const PacketSlot* s_;
  };

  PacketFifo() : slab_(&PacketSlab::local()) {}
  ~PacketFifo() { clear(); }
  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Sum of size_bytes over the queued packets.
  std::size_t bytes() const { return bytes_; }

  void push_back(Packet&& p) {
    assert(slab_ == &PacketSlab::local() && "PacketFifo used off its thread");
    PacketSlot* s = slab_->acquire();
    s->pkt = p;
    s->prev = tail_;
    s->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = s;
    tail_ = s;
    ++size_;
    bytes_ += static_cast<std::size_t>(p.size_bytes);
  }

  Packet& front() { return head_->pkt; }
  const Packet& front() const { return head_->pkt; }
  Packet& back() { return tail_->pkt; }
  const Packet& back() const { return tail_->pkt; }

  void pop_front() {
    PacketSlot* s = head_;
    head_ = s->next;
    (head_ != nullptr ? head_->prev : tail_) = nullptr;
    unlink_accounting(s);
  }
  void pop_back() {
    PacketSlot* s = tail_;
    tail_ = s->prev;
    (tail_ != nullptr ? tail_->next : head_) = nullptr;
    unlink_accounting(s);
  }

  // Drop every queued packet; O(1), the whole chain returns to the slab.
  void clear() {
    if (head_ == nullptr) return;
    slab_->release(head_, tail_, size_);
    head_ = tail_ = nullptr;
    size_ = bytes_ = 0;
  }

  const_iterator begin() const { return const_iterator(head_); }
  const_iterator end() const { return const_iterator(nullptr); }

 private:
  void unlink_accounting(PacketSlot* s) {
    --size_;
    bytes_ -= static_cast<std::size_t>(s->pkt.size_bytes);
    slab_->release(s, s, 1);
  }

  PacketSlab* slab_;
  PacketSlot* head_ = nullptr;
  PacketSlot* tail_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace floc
