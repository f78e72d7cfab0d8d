// Cancellable time-ordered event queue — calendar/timing-wheel hybrid
// over a generation-tagged slot slab.
//
// DES timestamps cluster at wire-latency offsets from "now" (tens of
// nanoseconds to a few microseconds), so a comparison-based heap pays
// O(log n) per operation to maintain a total order the workload barely
// exercises.  This queue instead keeps a *calendar* of kWheelSize
// fixed-width buckets covering the near future:
//
//   * schedule(t) with t inside the wheel window is an O(1) push into the
//     bucket covering t (buckets other than the current one stay
//     unsorted);
//   * schedule(t) with t at or past the window end goes to a far-future
//     overflow tier (a small 4-ary min-heap ordered by (time, seq));
//   * pop() consumes the *current* bucket through a cursor.  A bucket is
//     sorted by (time, seq) once, the moment it becomes current — by
//     then it has received all its entries except same-window
//     stragglers, which insert sorted into the unconsumed tail;
//   * when the current bucket drains, the wheel advances directly to the
//     next occupied bucket (an occupancy bitmap makes the skip O(1)),
//     and overflow entries whose time has rotated into the window are
//     re-spilled into their buckets;
//   * when the wheel itself drains, it re-anchors at the overflow front,
//     so arbitrarily sparse schedules cost no empty-bucket scanning.
//
// Pop order is exactly the (time, seq) total order the PR-4 heap
// produced — see DESIGN.md for the ordering argument — and the external
// contract is unchanged: events with equal timestamps fire in insertion
// order (FIFO), callbacks live inline in a slab of reusable
// generation-tagged slots, and the steady-state schedule/pop cycle
// performs zero heap allocations.
//
// Cancellation is O(1) amortized via tombstoning: a cancelled (or
// rescheduled) event's entry stays behind and is skipped when the cursor
// reaches it.  Tombstones are swept — order preserved — whenever dead
// entries outnumber live ones; the sweep is triggered from schedule(),
// cancel(), AND pop(), so any operation mix keeps heap_size() within a
// constant factor of size().  Each O(entries) sweep removes >= half the
// entries, each of which took at least one O(1) operation to create, so
// the sweep cost amortizes to O(1) per operation.
//
// reschedule() moves a pending event to a new time in place: the callback
// stays in its slot, the old entry becomes a tombstone, and the event
// behaves exactly as if it had been cancelled and re-scheduled at the new
// time (fresh FIFO seq) — minus the callback teardown and slot churn.
//
// Bucket storage is sized by use, not by the largest burst a bucket ever
// held.  Buckets grow as usual up to keep_capacity_ entries.  Past that, a
// full bucket trades its storage for the largest larger block among a few
// spares (or grows and parks its old block as a spare), and a bucket that
// drains holding more than keep_capacity_ trades back for the smallest
// smaller spare.  A same-instant burst that walks the wheel (every node's
// failure detector ticking at once) then reuses a spare block instead of
// leaving its capacity in every bucket it passes through.  Trades swap
// storage and copy entries in order, so pop order is unaffected, and a
// trade allocates only where plain growth would have.
//
// Every slot carries a 32-bit owner tag (in the simulator, the simulated
// node that owns the event, 0 for global work).  The tag never affects
// firing order.  It feeds a per-owner live count (owner_pending, the
// per-node queue-depth probe) and cancel_owner(), the fail-stop crash
// path: a cold slab walk that releases every live slot of one owner and
// leaves its queue entries behind as ordinary tombstones.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "des/inplace_callback.hpp"
#include "des/time.hpp"

namespace des {

/// Identifies a scheduled event; valid until the event fires or is
/// cancelled.  Encodes (generation << 32 | slot + 1) so ids of fired or
/// cancelled events are never confused with the slot's next tenant.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  using Callback = InplaceCallback;

  /// Schedules `fn` to fire at absolute time `t` on behalf of `owner`.
  /// `t` must not precede the last popped event time (enforced by Engine,
  /// not here).  Accepts any void() callable and constructs it directly in
  /// the slab slot (no intermediate Callback hop).  Defined inline below:
  /// schedule/pop are the simulator's innermost loop and must inline into
  /// callers.
  template <typename F>
  AMTLCE_DES_HOT_INLINE EventId schedule_on(std::uint32_t owner, Time t,
                                            F&& fn);

  /// schedule_on() for owner 0 (global work).
  template <typename F>
  AMTLCE_DES_HOT_INLINE EventId schedule(Time t, F&& fn) {
    return schedule_on(0, t, std::forward<F>(fn));
  }

  /// Cancels a pending event.  Returns false if the id is unknown or the
  /// event already fired.
  AMTLCE_DES_HOT_INLINE bool cancel(EventId id);

  /// Moves a pending event to absolute time `t`, keeping its callback.
  /// Equivalent to cancel + schedule of the same callback (the event gets
  /// a fresh FIFO position among equal timestamps) without the slot and
  /// callback churn.  Returns false if the id is unknown or already fired.
  AMTLCE_DES_HOT_INLINE bool reschedule(EventId id, Time t);

  /// Cancels every pending event of `owner` (fail-stop node crash).  Their
  /// EventIds go stale and their callbacks are destroyed without firing;
  /// other owners' events keep their order.  Returns the number of events
  /// cancelled.  Cold path: one O(slab) walk.
  std::size_t cancel_owner(std::uint32_t owner);

  /// Live events of `owner`.  O(1) for owners other than 0; owner 0 is
  /// not counted on the hot path, so its count is derived in O(owners).
  std::size_t owner_pending(std::uint32_t owner) const;

  /// Pre-sizes internal storage — slab, overflow tier, and every wheel
  /// bucket — so a steady-state workload of up to `events` concurrent
  /// events performs no allocations from the first operation on.  Cold
  /// path for benchmarks and long-lived engines; never required for
  /// correctness (storage also grows on demand).
  void reserve(std::size_t events);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Pending entries including tombstones, over all tiers (for tests:
  /// compaction keeps this within a constant factor of size()).
  std::size_t heap_size() const {
    return wheel_entries_ + overflow_.size() + stage_.size();
  }

  /// Slots in the slab, live or free (for tests: bounded by peak live
  /// events, not by total events ever scheduled).
  std::size_t slab_size() const { return slots_.size(); }

  /// Entries the wheel buckets and spare blocks can hold without growing
  /// (for tests: bounded by peak live events, not by the sum of every
  /// bucket's largest burst).
  std::size_t bucket_capacity() const;

  /// Time of the earliest pending event, or kTimeNever when empty.
  AMTLCE_DES_HOT_INLINE Time next_time();

  /// The front event's (time, seq) after dropping tombstones, where seq
  /// is the FIFO sequence number the event was (re)scheduled under.
  /// Returns false when the queue is empty.
  AMTLCE_DES_HOT_INLINE bool peek_front(Time& t, std::uint64_t& seq) {
    if (!ensure_front()) return false;
    const Entry& e = wheel_[cur_][cur_pos_];
    t = e.time;
    seq = e.key >> kSlotBits;
    return true;
  }

  /// Pops and returns the earliest pending event.  Precondition: !empty().
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
    Time time = 0;            ///< currently scheduled fire time
    std::uint64_t heap_key = 0;  ///< key of the slot's live queue entry
    std::uint32_t gen = 0;    ///< bumped on release; part of the EventId
    std::uint32_t next_free = kNoFree;
    std::uint32_t owner = 0;  ///< see cancel_owner / owner_pending
    bool live = false;
  };

  /// Entries are 16 bytes so four of them span a single cache line (the
  /// overflow tier is a 4-ary heap; bucket scans are linear).  `key`
  /// packs the FIFO sequence number into the high 40 bits and the slot
  /// index into the low 24: comparing keys orders by seq (seq is globally
  /// unique, so the slot bits never decide), and the seq doubles as the
  /// liveness token — an entry is live iff its key still equals its
  /// slot's heap_key.  Limits: 2^24 (16.7M) concurrent events, 2^40
  /// (1.1e12) schedules per queue lifetime; both are orders of magnitude
  /// beyond any simulation here (the slot limit is asserted on slab
  /// growth, a cold path).
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Entry {
    Time time;
    std::uint64_t key;  // seq << kSlotBits | slot
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return key > o.key;  // high bits are the FIFO seq
    }
  };
  static_assert(sizeof(Entry) == 16, "4 entries must fit one cache line");

  static AMTLCE_DES_HOT_INLINE bool entry_less(const Entry& a,
                                               const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  // ---- Wheel geometry -------------------------------------------------
  //
  // kBucketWidth is 1024 ns: the dominant inter-event gaps in this
  // simulator are NIC/link latencies (tens to hundreds of ns) and
  // software overheads (~1 us), so a ~1 us bucket keeps same-bucket
  // sorts short while still absorbing the bulk of traffic; RTO timers
  // and end-of-phase barriers (tens of us and up) ride the overflow
  // tier and re-spill as the window rotates.  kWheelSize = 256 buckets
  // cover a 262 us window, wide enough that steady-state traffic almost
  // never touches overflow.
  static constexpr std::uint32_t kWheelBits = 8;
  static constexpr std::uint32_t kWheelSize = 1u << kWheelBits;
  static constexpr std::uint32_t kWheelMask = kWheelSize - 1;
  static constexpr std::uint32_t kBucketShift = 10;
  static constexpr Time kBucketWidth = Time{1} << kBucketShift;
  static constexpr Time kWheelSpan = Time{kWheelSize} << kBucketShift;
  static constexpr std::uint32_t kOccWords = kWheelSize / 64;

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

  /// a + b clamped to kTimeNever (window bounds must not wrap when the
  /// wheel anchors near the end of the time axis).
  static Time sat_add(Time a, Time b) {
    return a >= kTimeNever - b ? kTimeNever : a + b;
  }

  std::uint32_t bucket_of(Time t) const {
    return static_cast<std::uint32_t>(
               static_cast<std::uint64_t>(t) >> kBucketShift) &
           kWheelMask;
  }

  AMTLCE_DES_HOT_INLINE void set_occ(std::uint32_t b) {
    occ_[b >> 6] |= 1ull << (b & 63u);
  }
  AMTLCE_DES_HOT_INLINE void clear_occ(std::uint32_t b) {
    occ_[b >> 6] &= ~(1ull << (b & 63u));
  }

  /// The slot behind `id`, or null when the id is invalid, stale, or the
  /// event already fired / was cancelled.
  AMTLCE_DES_HOT_INLINE Slot* live_slot(EventId id) {
    const auto low = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (low == 0 || low > slots_.size()) return nullptr;
    Slot& s = slots_[low - 1];
    if (!s.live || s.gen != gen_of(id)) return nullptr;
    return &s;
  }

  /// True when an entry still represents its slot's scheduled state (not
  /// a cancel/reschedule tombstone).  The key's seq bits are unique per
  /// schedule/reschedule, so key equality alone proves the entry is the
  /// slot's current tenant.
  AMTLCE_DES_HOT_INLINE bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.key & kSlotMask];
    return s.live && s.heap_key == e.key;
  }

  /// Returns a slot to the free list (callback destroyed, generation
  /// bumped so outstanding ids to it go stale).  The caller settles
  /// live_count_ and owner_live_.
  AMTLCE_DES_HOT_INLINE void release(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.fn.reset();
    s.live = false;
    ++s.gen;  // outstanding ids to this slot are now stale
    s.next_free = free_head_;
    free_head_ = idx;
  }

  /// Routes a fresh entry to its tier: current bucket (sorted insert into
  /// the unconsumed tail — also the path for times at or before the
  /// current window, so a past-time schedule still pops first), a future
  /// bucket (unsorted append), or the far-future stage (an unsorted tail
  /// heapified in bulk the next time the overflow tier is read — far
  /// inserts are O(1), and a schedule-soon-cancelled never pays a sift).
  AMTLCE_DES_HOT_INLINE void insert_entry(Time t, std::uint64_t key) {
    if (t >= wheel_end_) {
      stage_.push_back(Entry{t, key});
      return;
    }
    if (wheel_.empty()) wheel_.resize(kWheelSize);
    ++wheel_entries_;
    if (t < cur_end_) {
      std::vector<Entry>& b = wheel_[cur_];
      const Entry e{t, key};
      ensure_room(b);
      if (b.size() == cur_pos_ || !entry_less(e, b.back())) {
        // Hot case: a fresh seq at a time >= the tail's back lands last.
        b.push_back(e);
      } else {
        b.insert(std::lower_bound(b.begin() +
                                      static_cast<std::ptrdiff_t>(cur_pos_),
                                  b.end(), e, &EventQueue::entry_less),
                 e);
      }
      set_occ(cur_);
    } else {
      const std::uint32_t bi = bucket_of(t);
      push_bucket(wheel_[bi], Entry{t, key});
      set_occ(bi);
    }
  }

  /// Makes room for one more entry in a full bucket (make_room).  The
  /// check is the one push_back makes anyway; everything else is cold.
  AMTLCE_DES_HOT_INLINE void ensure_room(std::vector<Entry>& b) {
    if (b.size() == b.capacity()) [[unlikely]] make_room(b);
  }
  AMTLCE_DES_HOT_INLINE void push_bucket(std::vector<Entry>& b,
                                         const Entry& e) {
    ensure_room(b);
    b.push_back(e);
  }

  /// Positions the cursor on the earliest live entry, consuming
  /// tombstones, advancing the wheel over drained buckets, and
  /// re-anchoring at the overflow front when the wheel itself drains.
  /// Returns false when no live events remain.  After a true return the
  /// front entry is wheel_[cur_][cur_pos_].
  AMTLCE_DES_HOT_INLINE bool ensure_front() {
    for (;;) {
      if (wheel_entries_ > 0) {
        std::vector<Entry>& b = wheel_[cur_];
        while (cur_pos_ < b.size()) {
          if (entry_live(b[cur_pos_])) return true;
          ++cur_pos_;  // tombstone: consumed in place
          --wheel_entries_;
        }
        b.clear();
        cur_pos_ = 0;
        clear_occ(cur_);
        if (wheel_entries_ > 0) {
          advance();
          continue;
        }
      }
      if (!stage_.empty()) {
        flush_stage();  // may feed the wheel or the heap; re-examine both
        continue;
      }
      if (overflow_.empty()) return false;
      if (!entry_live(overflow_.front())) {
        overflow_pop_front();
        continue;
      }
      re_anchor(overflow_.front().time);
    }
  }

  /// Sweeps tombstones when dead entries exceed half of all pending
  /// entries (live < dead).  Called from schedule/cancel/pop/reschedule
  /// alike, so the entry-count bound holds for every operation mix and
  /// each O(entries) sweep amortizes to O(1) per operation.  The
  /// threshold check is inline (hot path); the sweep itself is out of
  /// line.
  AMTLCE_DES_HOT_INLINE void maybe_compact() {
    const std::size_t n = wheel_entries_ + overflow_.size() + stage_.size();
    if (n < kCompactMinEntries || n <= 2 * live_count_) return;
    compact();
  }
  void compact();

  /// Physically removes a live slot's queue entry when it is cheap to
  /// find — the tail of the stage or of its wheel bucket — so a
  /// schedule-soon-cancelled event leaves no tombstone at all.  Falls
  /// back to the tombstone protocol otherwise.  Keys embed a globally
  /// unique seq, so a tail key match proves identity, and a live entry
  /// can never sit inside the current bucket's consumed prefix.  Tier
  /// dispatch is exact: at rest every far-tier entry has
  /// time >= wheel_end_ (spill/flush run on every window move) and every
  /// wheel entry sits in bucket_of(its time), which depends on the time
  /// alone.
  AMTLCE_DES_HOT_INLINE void remove_or_tombstone(const Slot& s) {
    if (s.time >= wheel_end_) {
      if (!stage_.empty() && stage_.back().key == s.heap_key) {
        stage_.pop_back();
      }
      return;
    }
    std::vector<Entry>& b = wheel_[bucket_of(s.time)];
    if (!b.empty() && b.back().key == s.heap_key) {
      b.pop_back();
      --wheel_entries_;
    }
  }

  // Cold wheel maintenance (out of line; see event_queue.cpp).
  void make_room(std::vector<Entry>& b);
  void trade_down(std::vector<Entry>& b);
  void advance();
  void re_anchor(Time t0);
  void spill_overflow();
  void flush_stage();
  void begin_bucket();
  std::uint32_t next_occupied() const;

  // ---- Overflow tier: 4-ary min-heap on (time, seq).  Far-future
  // entries only (RTO timers, phase barriers), so it stays small; 4-ary
  // halves the depth of a binary heap and sibling entries share cache
  // lines.
  static constexpr std::size_t kHeapArity = 4;
  static constexpr std::size_t kCompactMinEntries = 64;

  AMTLCE_DES_HOT_INLINE void sift_up(std::size_t i) {
    const Entry e = overflow_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!(overflow_[parent] > e)) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = e;
  }

  AMTLCE_DES_HOT_INLINE void sift_down(std::size_t i) {
    const Entry e = overflow_[i];
    const std::size_t n = overflow_.size();
    for (;;) {
      const std::size_t first = kHeapArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      if (first + kHeapArity <= n) {
        // Full node — constant trip count, which the compiler unrolls.
        for (std::size_t c = first + 1; c < first + kHeapArity; ++c) {
          if (overflow_[best] > overflow_[c]) best = c;
        }
      } else {
        for (std::size_t c = first + 1; c < n; ++c) {
          if (overflow_[best] > overflow_[c]) best = c;
        }
      }
      if (!(e > overflow_[best])) break;
      overflow_[i] = overflow_[best];
      i = best;
    }
    overflow_[i] = e;
  }

  AMTLCE_DES_HOT_INLINE void overflow_push(const Entry& e) {
    overflow_.push_back(e);
    sift_up(overflow_.size() - 1);
  }

  AMTLCE_DES_HOT_INLINE void overflow_pop_front() {
    overflow_.front() = overflow_.back();
    overflow_.pop_back();
    if (!overflow_.empty()) sift_down(0);
  }

  void overflow_rebuild();

  // ---- Calendar state -------------------------------------------------
  std::vector<std::vector<Entry>> wheel_;  ///< kWheelSize buckets; lazy
  std::uint64_t occ_[kOccWords] = {};      ///< bucket-nonempty bitmap
  std::uint32_t cur_ = 0;       ///< current bucket index
  std::size_t cur_pos_ = 0;     ///< cursor into wheel_[cur_] (consumed prefix)
  Time wheel_base_ = 0;         ///< current bucket's window start (aligned)
  Time cur_end_ = kBucketWidth;    ///< wheel_base_ + kBucketWidth, saturated
  Time wheel_end_ = kWheelSpan;    ///< wheel_base_ + kWheelSpan, saturated
  std::size_t wheel_entries_ = 0;  ///< unconsumed entries across buckets
  /// Storage blocks no bucket holds; make_room/trade_down swap them with
  /// bucket storage.  A slot stays empty until a bucket first grows past
  /// keep_capacity_, so a wheel that never sees a load past it never
  /// uses them.  With sixteen, a fault-tolerant 32-node TLR run grows
  /// bucket storage 14 times in all and trades it about 4,000 times.
  static constexpr std::size_t kSpares = 16;
  std::vector<Entry> spares_[kSpares];
  /// Storage a bucket grows to and keeps on its own; reserve() raises it
  /// so pre-sized buckets keep their storage.
  std::size_t keep_capacity_ = 64;

  std::vector<Entry> overflow_;  ///< far-future tier, 4-ary min-heap
  std::vector<Entry> stage_;     ///< far-future arrivals not yet heapified
  std::vector<Slot> slots_;      ///< the slab; EventIds index into it
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  /// Live events per owner tag.  Owner 0 (untagged work) is never counted
  /// here, so plain schedule/cancel/pop pay nothing for the tags.
  std::vector<std::uint32_t> owner_live_;
};

template <typename F>
EventId EventQueue::schedule_on(std::uint32_t owner, Time t, F&& fn) {
  std::uint32_t idx;
  if (free_head_ != kNoFree) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    assert(idx <= kSlotMask && "slot index exceeds Entry packing");
  }
  if (owner != 0) {
    if (owner >= owner_live_.size()) owner_live_.resize(owner + 1);
    ++owner_live_[owner];
  }
  Slot& s = slots_[idx];
  s.fn = std::forward<F>(fn);  // constructed in place for raw callables
  s.time = t;
  s.owner = owner;
  // No overflow guard on the 40-bit seq: at simulator rates (~1e8
  // events/sec) it would take >3 wall-clock hours to exhaust, orders of
  // magnitude past any run here, and the check would tax every schedule.
  const std::uint64_t key = (next_seq_++ << kSlotBits) | idx;
  s.heap_key = key;
  s.live = true;
  insert_entry(t, key);
  ++live_count_;
  maybe_compact();
  return make_id(idx, s.gen);
}

inline bool EventQueue::cancel(EventId id) {
  Slot* const s = live_slot(id);
  if (s == nullptr) return false;
  remove_or_tombstone(*s);  // physical removal when cheap, else tombstone
  if (s->owner != 0) --owner_live_[s->owner];
  release(slot_of(id));
  --live_count_;
  maybe_compact();
  return true;
}

inline bool EventQueue::reschedule(EventId id, Time t) {
  // The seq is drawn even when the id is dead, as HeapSlabQueue does, so
  // the two queues stay seq-for-seq comparable under differential fuzz.
  const std::uint64_t seq = next_seq_++;
  Slot* const s = live_slot(id);
  if (s == nullptr) return false;
  // The old entry is removed in place when cheap, else goes stale (key
  // mismatch); a fresh one is inserted.  The event takes a new FIFO
  // position, exactly as cancel + schedule would.
  remove_or_tombstone(*s);
  s->time = t;
  const std::uint64_t key = (seq << kSlotBits) | slot_of(id);
  s->heap_key = key;
  insert_entry(t, key);
  maybe_compact();
  return true;
}

inline Time EventQueue::next_time() {
  if (!ensure_front()) return kTimeNever;
  return wheel_[cur_][cur_pos_].time;
}

inline EventQueue::Fired EventQueue::pop() {
  const bool has = ensure_front();
  assert(has && "pop() on empty EventQueue");
  (void)has;
  const Entry e = wheel_[cur_][cur_pos_];
  ++cur_pos_;
  --wheel_entries_;
  const auto idx = static_cast<std::uint32_t>(e.key & kSlotMask);
  Slot& s = slots_[idx];
  Fired fired{e.time, make_id(idx, s.gen), std::move(s.fn)};
  if (s.owner != 0) --owner_live_[s.owner];
  release(idx);
  --live_count_;
  maybe_compact();
  return fired;
}

}  // namespace des
