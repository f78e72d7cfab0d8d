#include "des/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace des {

// Cold paths of the calendar/timing-wheel hybrid: wheel rotation,
// overflow re-spill, the amortized tombstone sweep, and per-owner
// cancellation.  Hot-path methods (schedule, pop, cancel, reschedule, the
// cursor walk) live inline in the header — they are the simulator's
// innermost loop.

// A full bucket below keep_capacity_ grows as push_back would.  A larger
// one takes the largest spare block that is larger than its own storage,
// entries copied in order, and leaves its old block as that spare.
// Without one it grows to twice its size but parks its old block in an
// empty spare slot instead of freeing it: the spares fill from growth the
// wheel needed anyway, never from an extra allocation.
void EventQueue::make_room(std::vector<Entry>& b) {
  if (b.capacity() < keep_capacity_) {
    b.reserve(b.empty() ? 1 : 2 * b.size());
    return;
  }
  std::vector<Entry>* best = nullptr;
  std::vector<Entry>* empty = nullptr;
  for (std::vector<Entry>& s : spares_) {
    if (s.capacity() > (best ? best->capacity() : b.capacity())) best = &s;
    if (s.capacity() == 0) empty = &s;
  }
  if (best == nullptr) {
    if (empty == nullptr) {
      b.reserve(2 * b.size());
      return;
    }
    best = empty;
    best->reserve(2 * b.capacity());
  }
  best->assign(b.begin(), b.end());
  b.swap(*best);
  best->clear();
}

// A drained bucket holding more than keep_capacity_ takes the smallest
// spare block that is smaller than its own storage and leaves its block
// as that spare, so the next burst finds it there.  Empty slots hold no
// block, so a bucket never trades its storage for none.
void EventQueue::trade_down(std::vector<Entry>& b) {
  std::vector<Entry>* best = nullptr;
  for (std::vector<Entry>& s : spares_) {
    if (s.capacity() == 0) continue;
    if (s.capacity() < (best ? best->capacity() : b.capacity())) best = &s;
  }
  if (best != nullptr) b.swap(*best);
}

// Rotates the wheel to the next occupied bucket.  Only called with the
// current bucket drained and wheel_entries_ > 0, so a target exists; the
// drained bucket trades down first (here, off the inline pop path).
// Every occupied bucket holds times inside the old window, and overflow
// holds times >= the old window end, which is >= the new current
// bucket's window end — so spilling cannot add to the bucket the cursor
// is about to consume, and the jump target remains the global minimum.
void EventQueue::advance() {
  if (wheel_[cur_].capacity() > keep_capacity_) trade_down(wheel_[cur_]);
  const std::uint32_t next = next_occupied();
  const auto d = static_cast<std::uint32_t>((next - cur_) & kWheelMask);
  cur_ = next;
  wheel_base_ += static_cast<Time>(d) << kBucketShift;
  cur_end_ = sat_add(wheel_base_, kBucketWidth);
  wheel_end_ = sat_add(wheel_base_, kWheelSpan);
  spill_overflow();
  begin_bucket();
}

// The wheel is empty and the overflow front (at t0) is live: re-anchor
// the window so t0's bucket becomes current, then spill everything that
// now fits.  This is what keeps sparse schedules cheap — the wheel never
// steps through empty buckets between two far-apart events.
void EventQueue::re_anchor(Time t0) {
  if (wheel_.empty()) wheel_.resize(kWheelSize);
  // When pop() consumes the wheel's last entry, the current bucket keeps
  // its consumed prefix and occupancy bit (only ensure_front's
  // wheel_entries_ > 0 branch clears exhausted buckets).  Scrub it here,
  // or the new era revisits the bucket and counts its garbage against
  // wheel_entries_, stranding that many live events.
  wheel_[cur_].clear();
  if (wheel_[cur_].capacity() > keep_capacity_) trade_down(wheel_[cur_]);
  clear_occ(cur_);
  cur_pos_ = 0;
  wheel_base_ = static_cast<Time>(
      (static_cast<std::uint64_t>(t0) >> kBucketShift) << kBucketShift);
  cur_ = bucket_of(t0);
  cur_end_ = sat_add(wheel_base_, kBucketWidth);
  wheel_end_ = sat_add(wheel_base_, kWheelSpan);
  spill_overflow();
  if (wheel_entries_ == 0) {
    // t0 == kTimeNever == the saturated wheel_end_, so the spill
    // condition (time < wheel_end_) cannot admit it.  Move the front
    // entry directly; equal-time followers re-anchor one at a time in
    // (time, seq) heap order, preserving FIFO.
    const Entry e = overflow_.front();
    overflow_pop_front();
    push_bucket(wheel_[cur_], e);
    set_occ(cur_);
    ++wheel_entries_;
  }
  begin_bucket();
}

// Drains the unsorted far-future stage: dead entries vanish (they never
// paid a sift), in-window entries go straight to their buckets, and the
// rest heapify into the overflow tier.  Called on every window move and
// before any read of the overflow front, so between operations every
// staged entry satisfies time >= wheel_end_ — the invariant
// remove_or_tombstone's tier dispatch relies on.
void EventQueue::flush_stage() {
  for (const Entry& e : stage_) {
    if (!entry_live(e)) continue;
    if (e.time < wheel_end_) {
      const std::uint32_t bi = bucket_of(e.time);
      push_bucket(wheel_[bi], e);
      set_occ(bi);
      ++wheel_entries_;
    } else {
      overflow_push(e);
    }
  }
  stage_.clear();
}

// Moves every overflow entry whose time has rotated into the wheel
// window to its bucket.  Dead entries move too and are consumed as
// tombstones by the cursor — cheaper than filtering here.
void EventQueue::spill_overflow() {
  if (!stage_.empty()) flush_stage();
  while (!overflow_.empty() && overflow_.front().time < wheel_end_) {
    const Entry e = overflow_.front();
    overflow_pop_front();
    const std::uint32_t bi = bucket_of(e.time);
    push_bucket(wheel_[bi], e);
    set_occ(bi);
    ++wheel_entries_;
  }
}

// Sorts the new current bucket by (time, seq) and resets the cursor.
// This is the single sort that buys the whole design: every other
// bucket-touching operation is an O(1) append.
void EventQueue::begin_bucket() {
  std::vector<Entry>& b = wheel_[cur_];
  if (b.size() > 1) {
    std::sort(b.begin(), b.end(),
              [](const Entry& a, const Entry& x) { return entry_less(a, x); });
  }
  cur_pos_ = 0;
}

// First occupied bucket strictly after cur_, circularly.  Precondition:
// one exists (wheel_entries_ > 0 with the current bucket cleared).
std::uint32_t EventQueue::next_occupied() const {
  const std::uint32_t start = (cur_ + 1) & kWheelMask;
  std::uint32_t w = start >> 6;
  std::uint64_t word = occ_[w] & (~0ull << (start & 63u));
  for (std::uint32_t hops = 0; hops <= kOccWords; ++hops) {
    if (word != 0) {
      return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
    }
    w = (w + 1) & (kOccWords - 1);
    word = occ_[w];
  }
  assert(false && "occupancy bitmap empty with wheel_entries_ > 0");
  return cur_;
}

void EventQueue::compact() {
  // The (time, seq) order of surviving entries is untouched — wheel
  // entries keep their relative positions and the overflow heap is
  // rebuilt under the same comparator — so pop order, and therefore
  // simulation determinism, is unaffected.
  //
  // Walk only occupied buckets via the bitmap: cancel-heavy workloads
  // trigger a sweep every O(ring) operations, and touching all
  // kWheelSize bucket headers each time costs more than the sweep
  // itself when only a handful of buckets hold entries.
  if (!wheel_.empty()) {
    std::size_t remaining = 0;
    for (std::uint32_t w = 0; w < kOccWords; ++w) {
      // `word` is a snapshot, so clear_occ below cannot perturb the scan.
      for (std::uint64_t word = occ_[w]; word != 0; word &= word - 1) {
        const std::uint32_t bi =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
        std::vector<Entry>& b = wheel_[bi];
        if (bi == cur_ && cur_pos_ > 0) {
          // The current bucket also sheds its consumed prefix.
          b.erase(b.begin(),
                  b.begin() + static_cast<std::ptrdiff_t>(cur_pos_));
          cur_pos_ = 0;
        }
        std::erase_if(b, [this](const Entry& e) { return !entry_live(e); });
        if (b.empty()) {
          clear_occ(bi);
        } else {
          remaining += b.size();
        }
      }
    }
    wheel_entries_ = remaining;
  }
  const std::size_t overflow_before = overflow_.size();
  std::erase_if(overflow_, [this](const Entry& e) { return !entry_live(e); });
  // erase_if keeps the survivors' relative order, so an erase-free pass
  // leaves the heap property intact and the rebuild can be skipped.
  if (overflow_.size() != overflow_before) overflow_rebuild();
  std::erase_if(stage_, [this](const Entry& e) { return !entry_live(e); });
}

// Releasing a slot is all a cancellation needs: its wheel, stage or
// overflow entry no longer matches a live slot, so the cursor, spills and
// the next sweep treat it as an ordinary tombstone.  The window and the
// other owners' entries are untouched, so survivors keep their order.
std::size_t EventQueue::cancel_owner(std::uint32_t owner) {
  if (owner_pending(owner) == 0) return 0;
  std::size_t n = 0;
  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    if (!slots_[idx].live || slots_[idx].owner != owner) continue;
    release(idx);
    ++n;
  }
  if (owner != 0) owner_live_[owner] = 0;
  live_count_ -= n;
  maybe_compact();
  return n;
}

std::size_t EventQueue::owner_pending(std::uint32_t owner) const {
  if (owner != 0) return owner < owner_live_.size() ? owner_live_[owner] : 0;
  std::size_t tagged = 0;
  for (const std::uint32_t n : owner_live_) tagged += n;
  return live_count_ - tagged;
}

void EventQueue::reserve(std::size_t events) {
  slots_.reserve(events);
  // Compaction lets tombstones reach 2x the live count (plus the minimum
  // threshold) before sweeping, and in the worst case all of them sit in
  // one tier or one bucket.
  const std::size_t peak = 2 * events + kCompactMinEntries;
  overflow_.reserve(peak);
  stage_.reserve(peak);
  if (wheel_.empty()) wheel_.resize(kWheelSize);
  for (std::vector<Entry>& b : wheel_) b.reserve(peak);
  keep_capacity_ = std::max(keep_capacity_, wheel_.front().capacity());
}

std::size_t EventQueue::bucket_capacity() const {
  std::size_t n = 0;
  for (const std::vector<Entry>& b : wheel_) n += b.capacity();
  for (const std::vector<Entry>& s : spares_) n += s.capacity();
  return n;
}

void EventQueue::overflow_rebuild() {
  if (overflow_.size() < 2) return;
  for (std::size_t i = (overflow_.size() - 2) / kHeapArity + 1; i-- > 0;) {
    sift_down(i);
  }
}

}  // namespace des
