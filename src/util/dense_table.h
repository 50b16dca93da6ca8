// Dense, insertion-ordered hash table for integer keys.
//
// Records live in one vector of (key, value) slots, the live ones packed at
// the front; an open-addressed index (linear probing, power-of-two size, at
// most half full, backward-shift deletion) maps each key to its slot number.
// Erase moves the last record into the hole, so iteration is over one
// contiguous array, in insertion order perturbed only by erasures: the same
// for the same operation sequence, whatever the hash or standard library.
// `it = erase(it)` continues a loop correctly: the record moved into the
// hole has not been visited yet.
//
// Storage only grows. Erased slots stay constructed past size(), and an
// insert reuses the next one: through the value's `reset()` when it has one
// (so a value can keep heap storage of its own across reuse), else by
// assigning V{}. Once a table has held its working-set size, inserts and
// erases never allocate.
//
// Any insert or erase may move records: iterators, pointers and references
// into the table are invalidated (erase(it) returns the continuation). Keys
// must not be modified through an iterator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/seed.h"

namespace floc {

template <typename K, typename V>
class DenseTable {
  static_assert(std::is_integral_v<K>, "DenseTable keys are integers");

 public:
  using key_type = K;
  using value_type = std::pair<K, V>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return slots_.data(); }
  iterator end() { return slots_.data() + size_; }
  const_iterator begin() const { return slots_.data(); }
  const_iterator end() const { return slots_.data() + size_; }

  iterator find(K key) {
    const std::size_t at = probe(key);
    return at == kNone || index_[at] == 0 ? end()
                                          : begin() + (index_[at] - 1);
  }
  const_iterator find(K key) const {
    const std::size_t at = probe(key);
    return at == kNone || index_[at] == 0 ? end()
                                          : begin() + (index_[at] - 1);
  }

  // The record under `key`, inserting a fresh value at the end if there is
  // none; `second` tells whether it was inserted.
  std::pair<iterator, bool> try_emplace(K key) {
    std::size_t at = probe(key);
    if (at != kNone && index_[at] != 0) {
      return {begin() + (index_[at] - 1), false};
    }
    if (2 * (size_ + 1) > index_.size()) {
      grow_index();
      at = probe(key);
    }
    if (size_ == slots_.size()) {
      slots_.emplace_back(key, V{});
    } else {
      slots_[size_].first = key;
      reset_value(slots_[size_].second);
    }
    index_[at] = static_cast<std::uint32_t>(++size_);
    return {begin() + (size_ - 1), true};
  }

  // Removes the record at `pos` by moving the last record into its place;
  // returns `pos`, which now holds the next record to visit.
  iterator erase(iterator pos) {
    const std::size_t slot = static_cast<std::size_t>(pos - begin());
    const std::size_t last = size_ - 1;
    const std::size_t hole = index_of_slot(slot);
    if (slot != last) {
      // Re-point the last record's entry while its key is still in place.
      index_[index_of_slot(last)] = static_cast<std::uint32_t>(slot + 1);
      std::swap(slots_[slot], slots_[last]);
    }
    --size_;
    unlink(hole);
    return pos;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinIndex = 8;

  static void reset_value(V& v) {
    if constexpr (requires { v.reset(); }) {
      v.reset();
    } else {
      v = V{};
    }
  }

  std::size_t mask() const { return index_.size() - 1; }
  std::size_t home(K key) const {
    return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(key))) &
           mask();
  }

  // Index position holding `key`, else the empty position that ends its
  // probe run; kNone while the index is unallocated.
  std::size_t probe(K key) const {
    if (index_.empty()) return kNone;
    std::size_t i = home(key);
    while (index_[i] != 0 && slots_[index_[i] - 1].first != key) {
      i = (i + 1) & mask();
    }
    return i;
  }

  // Index position of the entry that names live slot `slot`.
  std::size_t index_of_slot(std::size_t slot) const {
    std::size_t i = home(slots_[slot].first);
    while (index_[i] != slot + 1) i = (i + 1) & mask();
    return i;
  }

  // Empties index position `hole`, shifting later entries of the run back
  // so that every key stays reachable from its home without tombstones.
  void unlink(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask(); index_[j] != 0;
         j = (j + 1) & mask()) {
      // The entry at j may fill the hole unless its home lies cyclically in
      // (hole, j].
      const std::size_t h = home(slots_[index_[j] - 1].first);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = 0;
  }

  void grow_index() {
    index_.assign(index_.empty() ? kMinIndex : 2 * index_.size(), 0);
    for (std::size_t s = 0; s < size_; ++s) {
      index_[probe(slots_[s].first)] = static_cast<std::uint32_t>(s + 1);
    }
  }

  std::vector<value_type> slots_;      // [0, size_) live; the rest reusable
  std::vector<std::uint32_t> index_;   // slot number + 1; 0 = empty
  std::size_t size_ = 0;
};

}  // namespace floc
