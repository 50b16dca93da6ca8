// Packet buffers: slab slots, the owning PacketRef, and PacketFifo.
//
// A packet lives in one fixed-size slot from the moment its source sends it
// until its sink's agent has consumed it (or a drop releases it). Every hop
// hands the slot on: a queue discipline takes a PacketRef on enqueue and
// returns it on dequeue, the link moves it onto its wire and then to the
// next node. Nothing is copied on the way; only the source writes the packet
// once, when a Packet converts to a PacketRef.
//
// Slots come from a slab that every queue of one thread shares. A released
// slot goes on the slab's free list and is never returned to malloc, so the
// slab grows only when the thread's total number of live packets reaches a
// new high. Once it has, send/enqueue/dequeue/deliver on any link of that
// thread are allocation-free (see docs/INTERNALS.md, "Packet buffers").
//
// Thread affinity: a ref acquires from and releases to the slab of the
// calling thread, so a packet must be sent, carried and released on one
// thread (the way ScenarioRunner builds, runs and tears down each world on
// one worker). A FIFO must likewise be used and destroyed on the thread that
// constructed it. Nothing observable depends on slot addresses.
//
// Under AddressSanitizer a free slot's Packet is poisoned, so touching a
// packet after its ref released it reports a use-after-poison.
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
              "slab slots recycle Packets without destructing them");

struct PacketSlot {
  Packet pkt;
  PacketSlot* prev = nullptr;
  PacketSlot* next = nullptr;
};

// Per-thread slot pool shared by every PacketRef and PacketFifo of a thread.
class PacketSlab {
 public:
  static constexpr std::size_t kChunkSlots = 64;

  // The calling thread's slab.
  static PacketSlab& local();

  PacketSlab() = default;
  ~PacketSlab();
  PacketSlab(const PacketSlab&) = delete;
  PacketSlab& operator=(const PacketSlab&) = delete;

  std::size_t capacity() const { return chunks_.size() * kChunkSlots; }
  std::size_t free_slots() const { return free_count_; }

 private:
  friend class PacketRef;
  friend class PacketFifo;

  PacketSlot* acquire() {
    if (free_ == nullptr) grow();
    PacketSlot* s = free_;
    free_ = s->next;
    --free_count_;
    unpoison(s);
    return s;
  }
  // Return the chain first..last (linked through `next`, `count` slots).
  void release(PacketSlot* first, PacketSlot* last, std::size_t count) {
    poison_chain(first, last);
    last->next = free_;
    free_ = first;
    free_count_ += count;
  }
  void grow();

#if defined(__SANITIZE_ADDRESS__)
  static void unpoison(PacketSlot* s);
  static void poison_chain(PacketSlot* first, PacketSlot* last);
#else
  static void unpoison(PacketSlot*) {}
  static void poison_chain(PacketSlot*, PacketSlot*) {}
#endif

  std::vector<std::unique_ptr<PacketSlot[]>> chunks_;
  PacketSlot* free_ = nullptr;
  std::size_t free_count_ = 0;
};

// Owning, move-only handle to one slot. An empty ref (default-constructed,
// moved from, or returned by an empty queue's dequeue) owns nothing; a
// non-empty ref returns its slot to the thread's slab when it dies.
class PacketRef {
 public:
  PacketRef() = default;
  // Write `p` into a fresh slot: the one copy a packet pays, at its source.
  // Implicit, so a Packet goes wherever a PacketRef is taken.
  PacketRef(const Packet& p) : s_(PacketSlab::local().acquire()) {
    s_->pkt = p;
  }
  PacketRef(PacketRef&& o) noexcept : s_(o.s_) { o.s_ = nullptr; }
  PacketRef& operator=(PacketRef&& o) noexcept {
    if (this != &o) {
      reset();
      s_ = o.s_;
      o.s_ = nullptr;
    }
    return *this;
  }
  PacketRef(const PacketRef&) = delete;
  PacketRef& operator=(const PacketRef&) = delete;
  ~PacketRef() { reset(); }

  explicit operator bool() const { return s_ != nullptr; }
  Packet& operator*() const { return s_->pkt; }
  Packet* operator->() const { return &s_->pkt; }

  // Release the slot now (no-op when empty).
  void reset() {
    if (s_ == nullptr) return;
    PacketSlab::local().release(s_, s_, 1);
    s_ = nullptr;
  }

 private:
  friend class PacketFifo;
  explicit PacketRef(PacketSlot* s) : s_(s) {}

  PacketSlot* s_ = nullptr;
};

// FIFO of slots linked in place: push_back and pop_front relink a slot in
// O(1) and never copy its packet. The FIFO also keeps the byte total of its
// packets, so disciplines need no byte counter of their own.
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

  // Take ownership of p's slot (p must not be empty) and link it at the tail.
  void push_back(PacketRef p) {
    assert(p && "PacketFifo::push_back of an empty ref");
    assert(slab_ == &PacketSlab::local() && "PacketFifo used off its thread");
    PacketSlot* s = p.s_;
    p.s_ = nullptr;
    s->prev = tail_;
    s->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = s;
    tail_ = s;
    ++size_;
    bytes_ += static_cast<std::size_t>(s->pkt.size_bytes);
  }

  Packet& front() { return head_->pkt; }
  const Packet& front() const { return head_->pkt; }
  Packet& back() { return tail_->pkt; }
  const Packet& back() const { return tail_->pkt; }

  // Unlink the oldest (pop_front) or newest (pop_back) packet and hand its
  // slot to the caller; the queue must not be empty.
  PacketRef pop_front() {
    PacketSlot* s = head_;
    head_ = s->next;
    (head_ != nullptr ? head_->prev : tail_) = nullptr;
    unlink_accounting(s);
    return PacketRef(s);
  }
  PacketRef pop_back() {
    PacketSlot* s = tail_;
    tail_ = s->prev;
    (tail_ != nullptr ? tail_->next : head_) = nullptr;
    unlink_accounting(s);
    return PacketRef(s);
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
  void unlink_accounting(const PacketSlot* s) {
    --size_;
    bytes_ -= static_cast<std::size_t>(s->pkt.size_bytes);
  }

  PacketSlab* slab_;
  PacketSlot* head_ = nullptr;
  PacketSlot* tail_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace floc
