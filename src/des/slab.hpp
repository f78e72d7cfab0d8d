// Slab: recycled slots with stable addresses and generation-tagged ids.
//
// Per-message state (task states, pending fetches, put completion
// handles, in-flight deliveries, tracked sends, library requests) is
// created and retired millions of times per run.  A slab hands out slot
// numbers from a LIFO free list, so warm slots come back first and any
// vector inside a slot keeps its capacity from one occupant to the next.
// Storage grows in fixed chunks allocated on demand and never moves, so a
// slot's address stays valid while other slots are acquired; nothing is
// allocated until the first slot is.
//
// A slot can also be named by an Id, `generation << 32 | (slot + 1)`, so
// 0 never names a slot.  Releasing a slot bumps its generation: an id
// held past its occupant's release misses in find() instead of reaching
// the slot's next occupant.  Generations start at 0.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace des {

template <class T>
class Slab {
 public:
  using Id = std::uint64_t;

  /// A free slot (holding its previous occupant's state, for the caller
  /// to reset), or a new default-constructed one.
  std::uint32_t acquire() {
    std::uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
      s = size_++;
    }
    meta(s).live = true;
    return s;
  }

  /// Returns `s` to the free list; ids issued for it stop resolving.
  void release(std::uint32_t s) {
    Meta& m = meta(s);
    assert(m.live && "slab slot released twice");
    m.live = false;
    ++m.gen;
    free_.push_back(s);
  }

  /// Slots ever created, free ones included.  Walking 0..size() and
  /// skipping !live(s) visits the occupied slots in slot order.
  std::uint32_t size() const { return size_; }
  bool live(std::uint32_t s) const { return meta(s).live; }

  /// The id of slot `s`'s current occupant.
  Id id(std::uint32_t s) const {
    return (Id{meta(s).gen} << 32) | (Id{s} + 1);
  }
  static std::uint32_t slot_of(Id id) {
    return static_cast<std::uint32_t>(id) - 1u;
  }

  /// The occupant `id` names, or null for 0, unknown, freed or stale ids.
  T* find(Id id) {
    const std::uint32_t s = slot_of(id);  // 0 wraps to 0xFFFFFFFF
    if (s >= size_) return nullptr;
    const Meta& m = meta(s);
    if (!m.live || m.gen != static_cast<std::uint32_t>(id >> 32)) {
      return nullptr;
    }
    return &(*this)[s];
  }

  T& operator[](std::uint32_t s) {
    return chunks_[s / kChunk]->value[s % kChunk];
  }
  const T& operator[](std::uint32_t s) const {
    return chunks_[s / kChunk]->value[s % kChunk];
  }

 private:
  static constexpr std::uint32_t kChunk = 16;

  struct Meta {
    std::uint32_t gen = 0;
    bool live = false;
  };
  // Bookkeeping shares the chunk's allocation with the values.
  struct Chunk {
    T value[kChunk];
    Meta meta[kChunk];
  };

  Meta& meta(std::uint32_t s) { return chunks_[s / kChunk]->meta[s % kChunk]; }
  const Meta& meta(std::uint32_t s) const {
    return chunks_[s / kChunk]->meta[s % kChunk];
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace des
