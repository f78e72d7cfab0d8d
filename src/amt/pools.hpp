// Allocation-free containers for the runtime's per-message state.
//
// The runtime creates and retires a task state, a pending fetch and a few
// small vectors for every flow it handles.  Node-based maps and fresh
// vectors made that several heap allocations per message; these
// containers (with des::Slab for the states themselves) recycle storage
// instead, so steady traffic allocates only when a high-water mark grows.
//
//   FlatIndex  open-addressing hash index from a key to a slab slot
//              (linear probing, backward-shift deletion, no tombstones).
//              Its iteration order is unspecified: use it only where the
//              order never reaches the simulation.
//   VecPool    spare vectors keeping their capacity.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace amt {

template <class K, class Hash>
class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

  std::size_t size() const { return size_; }
  /// Bytes per table entry: the key and a 32-bit slot.
  static constexpr std::size_t entry_bytes() { return sizeof(Entry); }

  /// The slot stored under `key`, or kNone.
  std::uint32_t find(const K& key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = next(i)) {
      const Entry& e = table_[i];
      if (e.slot == kNone) return kNone;
      if (e.key == key) return e.slot;
    }
  }

  /// Stores `slot` under `key`, which must be absent (callers have just
  /// missed it with find()).
  void insert(const K& key, std::uint32_t slot) {
    assert(slot != kNone);
    if (2 * (size_ + 1) > table_.size()) rehash();
    std::size_t i = home(key);
    while (table_[i].slot != kNone) i = next(i);
    table_[i] = Entry{key, slot};
    ++size_;
  }

  /// Removes `key` and returns its slot (kNone when absent).
  std::uint32_t erase(const K& key) {
    if (size_ == 0) return kNone;
    std::size_t i = home(key);
    for (;; i = next(i)) {
      if (table_[i].slot == kNone) return kNone;
      if (table_[i].key == key) break;
    }
    const std::uint32_t slot = table_[i].slot;
    // Backward shift: pull later members of the probe run into the hole
    // unless that would move one before its home position.
    for (std::size_t j = next(i);; j = next(j)) {
      if (table_[j].slot == kNone) break;
      const std::size_t h = home(table_[j].key);
      if (((j - h) & mask()) >= ((j - i) & mask())) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i].slot = kNone;
    --size_;
    return slot;
  }

  /// Calls fn(key, slot) for every entry, in unspecified order.  `fn`
  /// must not modify the index.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : table_) {
      if (e.slot != kNone) fn(e.key, e.slot);
    }
  }

 private:
  struct Entry {
    K key{};
    std::uint32_t slot = kNone;
  };

  std::size_t mask() const { return table_.size() - 1; }
  std::size_t home(const K& key) const { return Hash{}(key) & mask(); }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

  void rehash() {
    std::vector<Entry> old(table_.empty() ? 16 : 2 * table_.size());
    old.swap(table_);
    size_ = 0;
    for (const Entry& e : old) {
      if (e.slot != kNone) insert(e.key, e.slot);
    }
  }

  std::vector<Entry> table_;  ///< power-of-two size, at most half full
  std::size_t size_ = 0;
};

/// Hash of a dense task id for FlatIndex: a multiply folds the high
/// product bits into the low ones the index masks with, so ids that
/// differ by a stride of the block-cyclic distribution spread out.
struct DenseIdHash {
  std::size_t operator()(std::uint32_t id) const {
    const std::uint64_t h = id * 0x9E37'79B9'7F4A'7C15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

template <class T>
class VecPool {
 public:
  /// An empty vector, with the capacity of a returned one when available.
  std::vector<T> take() {
    if (spare_.empty()) return {};
    std::vector<T> v = std::move(spare_.back());
    spare_.pop_back();
    return v;
  }
  /// Returns `v`'s storage to the pool and leaves `v` empty.
  void give(std::vector<T>& v) {
    if (v.capacity() == 0) return;
    v.clear();
    spare_.push_back(std::move(v));
    v = {};
  }

 private:
  std::vector<std::vector<T>> spare_;
};

}  // namespace amt
