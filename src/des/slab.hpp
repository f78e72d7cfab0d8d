// Slab: recycled slots with stable addresses.
//
// Per-message state (task states, pending fetches, put completion
// handles) is created and retired millions of times per run.  A slab
// hands out slot numbers from a LIFO free list, so warm slots come back
// first and any vector inside a slot keeps its capacity from one occupant
// to the next.  Storage grows in fixed chunks allocated on demand and
// never moves, so a slot's address stays valid while other slots are
// acquired; nothing is allocated until the first slot is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace des {

template <class T>
class Slab {
 public:
  /// A free slot (holding its previous occupant's state, for the caller
  /// to reset), or a new default-constructed one.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
    return size_++;
  }
  void release(std::uint32_t s) { free_.push_back(s); }

  /// Slots ever created, free ones included.
  std::uint32_t size() const { return size_; }

  T& operator[](std::uint32_t s) { return chunks_[s / kChunk][s % kChunk]; }
  const T& operator[](std::uint32_t s) const {
    return chunks_[s / kChunk][s % kChunk];
  }

 private:
  static constexpr std::uint32_t kChunk = 16;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace des
