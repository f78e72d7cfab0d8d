// The binary-heap slot-slab event queue that preceded the calendar/
// timing-wheel hybrid, preserved as a reference implementation (minus its
// bulk cancel, which nothing used).  Header-only and outside the
// simulator's sources: nothing in the simulator uses it.
//
// Two consumers keep it alive:
//   * tests/des/queue_differential_test.cpp pops it side-by-side with the
//     hybrid queue over randomized schedule/cancel/reschedule mixes — the
//     two must agree on every (time, seq) pop and every EventId's
//     liveness, which is the strongest correctness check we have for the
//     wheel's ordering.
//   * bench/perf_core reports its throughput as the "heapslab" row so the
//     hybrid's speedup is measured against the structure it replaced, on
//     the same machine, in the same run.
//
// Semantics (shared with the hybrid — see event_queue.hpp for the full
// contract): FIFO among equal timestamps, generation-tagged EventIds,
// O(1) amortized cancellation via tombstones, compaction whenever dead
// entries outnumber live ones, zero steady-state allocations.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "des/event_queue.hpp"  // EventId, kInvalidEvent
#include "des/inplace_callback.hpp"
#include "des/time.hpp"

namespace des {

class HeapSlabQueue {
 public:
  using Callback = InplaceCallback;

  template <typename F>
  AMTLCE_DES_HOT_INLINE EventId schedule(Time t, F&& fn);

  template <typename F>
  AMTLCE_DES_HOT_INLINE EventId schedule_seq(Time t, std::uint64_t seq,
                                             F&& fn);

  AMTLCE_DES_HOT_INLINE bool cancel(EventId id);

  AMTLCE_DES_HOT_INLINE bool reschedule(EventId id, Time t);

  AMTLCE_DES_HOT_INLINE bool reschedule_seq(EventId id, Time t,
                                            std::uint64_t seq);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Heap entries including tombstones.
  std::size_t heap_size() const { return heap_.size(); }

  /// Slots in the slab, live or free.
  std::size_t slab_size() const { return slots_.size(); }

  AMTLCE_DES_HOT_INLINE Time next_time();

  AMTLCE_DES_HOT_INLINE bool peek_front(Time& t, std::uint64_t& seq) {
    drop_dead_front();
    if (heap_.empty()) return false;
    t = heap_.front().time;
    seq = heap_.front().key >> kSlotBits;
    return true;
  }

  struct Fired {
    Time time;
    EventId id;
    Callback fn;
  };
  AMTLCE_DES_HOT_INLINE Fired pop();

 private:
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;

  struct Slot {
    Callback fn;
    Time time = 0;
    std::uint64_t heap_key = 0;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoFree;
    bool live = false;
  };

  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Entry {
    Time time;
    std::uint64_t key;  // seq << kSlotBits | slot
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return key > o.key;
    }
  };
  static_assert(sizeof(Entry) == 16, "4 children must fit one cache line");

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  AMTLCE_DES_HOT_INLINE Slot* live_slot(EventId id) {
    const auto low = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (low == 0 || low > slots_.size()) return nullptr;
    Slot& s = slots_[low - 1];
    if (!s.live || s.gen != gen_of(id)) return nullptr;
    return &s;
  }

  AMTLCE_DES_HOT_INLINE bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.key & kSlotMask];
    return s.live && s.heap_key == e.key;
  }

  AMTLCE_DES_HOT_INLINE void release(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.fn.reset();
    s.live = false;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  AMTLCE_DES_HOT_INLINE void drop_dead_front() {
    while (!heap_.empty() && !entry_live(heap_.front())) {
      heap_pop_front();
    }
  }

  AMTLCE_DES_HOT_INLINE void maybe_compact() {
    if (heap_.size() < kCompactMinHeap || heap_.size() <= 2 * live_count_) {
      return;
    }
    compact();
  }
  // The cold paths (compact, heap_rebuild) stay out of line, as they were
  // when the queue had its own .cpp: inlined into the hot paths they
  // change the baseline perf_core's ratio guards were recorded against.
  [[gnu::noinline]] void compact() {
    std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
    heap_rebuild();
  }

  static constexpr std::size_t kHeapArity = 4;
  static constexpr std::size_t kCompactMinHeap = 64;

  AMTLCE_DES_HOT_INLINE void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!(heap_[parent] > e)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  AMTLCE_DES_HOT_INLINE void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = kHeapArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      if (first + kHeapArity <= n) {
        for (std::size_t c = first + 1; c < first + kHeapArity; ++c) {
          if (heap_[best] > heap_[c]) best = c;
        }
      } else {
        for (std::size_t c = first + 1; c < n; ++c) {
          if (heap_[best] > heap_[c]) best = c;
        }
      }
      if (!(e > heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  AMTLCE_DES_HOT_INLINE void heap_push(const Entry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  AMTLCE_DES_HOT_INLINE void heap_pop_front() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  [[gnu::noinline]] void heap_rebuild() {
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

template <typename F>
EventId HeapSlabQueue::schedule(Time t, F&& fn) {
  return schedule_seq(t, next_seq_++, std::forward<F>(fn));
}

template <typename F>
EventId HeapSlabQueue::schedule_seq(Time t, std::uint64_t seq, F&& fn) {
  std::uint32_t idx;
  if (free_head_ != kNoFree) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    assert(idx <= kSlotMask && "slot index exceeds Entry packing");
  }
  Slot& s = slots_[idx];
  s.fn = std::forward<F>(fn);
  s.time = t;
  const std::uint64_t key = (seq << kSlotBits) | idx;
  s.heap_key = key;
  s.live = true;
  heap_push(Entry{t, key});
  ++live_count_;
  maybe_compact();
  return make_id(idx, s.gen);
}

inline bool HeapSlabQueue::cancel(EventId id) {
  Slot* const s = live_slot(id);
  if (s == nullptr) return false;
  release(slot_of(id));
  --live_count_;
  maybe_compact();
  return true;
}

inline bool HeapSlabQueue::reschedule(EventId id, Time t) {
  return reschedule_seq(id, t, next_seq_++);
}

inline bool HeapSlabQueue::reschedule_seq(EventId id, Time t,
                                          std::uint64_t seq) {
  Slot* const s = live_slot(id);
  if (s == nullptr) return false;
  s->time = t;
  const std::uint64_t key = (seq << kSlotBits) | slot_of(id);
  s->heap_key = key;
  heap_push(Entry{t, key});
  maybe_compact();
  return true;
}

inline Time HeapSlabQueue::next_time() {
  drop_dead_front();
  return heap_.empty() ? kTimeNever : heap_.front().time;
}

inline HeapSlabQueue::Fired HeapSlabQueue::pop() {
  drop_dead_front();
  assert(!heap_.empty() && "pop() on empty HeapSlabQueue");
  const Entry e = heap_.front();
  heap_pop_front();
  const auto idx = static_cast<std::uint32_t>(e.key & kSlotMask);
  Slot& s = slots_[idx];
  Fired fired{e.time, make_id(idx, s.gen), std::move(s.fn)};
  release(idx);
  --live_count_;
  maybe_compact();
  return fired;
}

}  // namespace des
