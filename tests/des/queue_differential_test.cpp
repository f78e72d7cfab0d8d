// Differential fuzzing: the calendar/timing-wheel hybrid EventQueue
// against the 4-ary-heap slot-slab queue it replaced (preserved verbatim
// as des::HeapSlabQueue).  Both queues promise the same contract —
// exact global (time, seq) pop order, generation-tagged EventIds whose
// cancel/reschedule outcomes depend only on the call history — so any
// randomized mix of operations driven at both must produce identical
// observable behavior, operation by operation.  The two implementations
// share no ordering machinery (sorted calendar buckets + overflow heap
// vs. one 4-ary heap), which is what gives the comparison its teeth:
// a bucket-boundary or spill bug in the hybrid cannot be mirrored by a
// matching bug in the reference.
//
// The op mix deliberately includes the hybrid's edge geometry: deltas
// that straddle its bucket width (1024 ns) and wheel span (256 KiB ns),
// far-future times that park in the overflow tier and must re-spill as
// the wheel advances, same-tick collisions (FIFO order must hold), and
// past-time schedules (the queue orders them before the rest of the
// current bucket rather than asserting — the ENGINE owns past-time
// policy, see engine_release_guard_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "des/event_queue.hpp"
#include "des/heap_slab_queue.hpp"
#include "des/rng.hpp"

namespace {

using des::EventId;
using des::EventQueue;
using des::HeapSlabQueue;
using des::kInvalidEvent;
using des::Time;

// One live event mirrored in both queues.  `tag` is the payload both
// callbacks deliver, so pop-order equality is checked on user-visible
// data, not on internal ids.
struct Mirrored {
  EventId hybrid = kInvalidEvent;
  EventId heapslab = kInvalidEvent;
  std::uint64_t tag = 0;
};

class Differ {
 public:
  void schedule(Time t, std::uint64_t tag) {
    Mirrored m;
    m.tag = tag;
    m.hybrid = hybrid_.schedule(t, [this, tag] { hybrid_fired_.push_back(tag); });
    m.heapslab =
        heapslab_.schedule(t, [this, tag] { heapslab_fired_.push_back(tag); });
    live_.push_back(m);
  }

  // Applies cancel/reschedule to BOTH queues and asserts they agree on
  // the outcome (true = was live).  `idx` indexes live_; stale handles
  // (already popped/cancelled) are legal inputs — the generation tag
  // must make both queues reject them identically.
  void cancel(std::size_t idx) {
    const Mirrored m = live_[idx];
    const bool a = hybrid_.cancel(m.hybrid);
    const bool b = heapslab_.cancel(m.heapslab);
    ASSERT_EQ(a, b) << "cancel liveness diverged for tag " << m.tag;
    if (a) forget(idx);
  }

  void reschedule(std::size_t idx, Time t) {
    const Mirrored m = live_[idx];
    const bool a = hybrid_.reschedule(m.hybrid, t);
    const bool b = heapslab_.reschedule(m.heapslab, t);
    ASSERT_EQ(a, b) << "reschedule liveness diverged for tag " << m.tag;
  }

  // Pops one event from each queue and asserts identical (time, tag).
  void pop_one() {
    ASSERT_EQ(hybrid_.empty(), heapslab_.empty());
    if (hybrid_.empty()) return;
    Time ta, tb;
    std::uint64_t sa, sb;
    ASSERT_TRUE(hybrid_.peek_front(ta, sa));
    ASSERT_TRUE(heapslab_.peek_front(tb, sb));
    ASSERT_EQ(ta, tb) << "front time diverged";
    ASSERT_EQ(sa, sb) << "front seq diverged";
    ASSERT_EQ(hybrid_.next_time(), heapslab_.next_time());
    auto fa = hybrid_.pop();
    auto fb = heapslab_.pop();
    ASSERT_EQ(fa.time, fb.time);
    fa.fn();
    fb.fn();
    ASSERT_EQ(hybrid_fired_.size(), heapslab_fired_.size());
    ASSERT_EQ(hybrid_fired_.back(), heapslab_fired_.back())
        << "pop order diverged at event " << hybrid_fired_.size();
  }

  void drain() {
    while (!hybrid_.empty() || !heapslab_.empty()) pop_one();
    ASSERT_EQ(hybrid_fired_, heapslab_fired_);
  }

  std::size_t tracked() const { return live_.size(); }
  bool queues_empty() const { return hybrid_.empty() && heapslab_.empty(); }
  std::size_t size() const { return hybrid_.size(); }

  void check_sizes() const {
    ASSERT_EQ(hybrid_.size(), heapslab_.size());
    ASSERT_EQ(hybrid_.slab_size(), heapslab_.slab_size());
  }

 private:
  // Swap-removes a consumed handle so the live_ pool stays dense; stale
  // handles deliberately LINGER with probability (see callers) to keep
  // exercising generation-tag rejection.
  void forget(std::size_t idx) {
    live_[idx] = live_.back();
    live_.pop_back();
  }

  EventQueue hybrid_;
  HeapSlabQueue heapslab_;
  std::vector<Mirrored> live_;
  std::vector<std::uint64_t> hybrid_fired_;
  std::vector<std::uint64_t> heapslab_fired_;
};

// Deltas chosen around the hybrid's geometry: same-tick (0), sub-bucket,
// exactly one bucket (1024), bucket-straddling, most of the wheel span,
// exactly the span (262144), just past it (overflow), and deep overflow
// (re-spills through many wheel revolutions).
constexpr Time kDeltas[] = {0,    1,      7,      1023,   1024,  1025,
                            4096, 200000, 262143, 262144, 262145, 1 << 20,
                            50'000'000, 80'413'426};

TEST(QueueDifferential, RandomizedOpMixMatchesReference) {
  des::Rng rng(0xD1FFu);
  Differ d;
  Time now = 0;
  std::uint64_t next_tag = 0;
  for (int op = 0; op < 200'000; ++op) {
    const std::uint32_t dice = rng.below(100);
    if (dice < 45 || d.queues_empty()) {
      const Time delta = kDeltas[rng.below(std::size(kDeltas))];
      d.schedule(now + delta, next_tag++);
    } else if (dice < 65) {
      d.pop_one();
    } else if (dice < 80 && d.tracked() > 0) {
      d.cancel(rng.below(d.tracked()));
    } else if (dice < 90 && d.tracked() > 0) {
      // Reschedules may target the past (relative to pops so far): the
      // queue contract orders such events before everything pending.
      const Time delta = kDeltas[rng.below(std::size(kDeltas))];
      const Time t = (rng() & 1) != 0 && now > 2048
                         ? now - 2048 + static_cast<Time>(rng.below(4096))
                         : now + delta;
      d.reschedule(rng.below(d.tracked()), t);
    } else if (d.tracked() > 0) {
      // Forward-only reschedule across the whole wheel geometry.
      const Time delta = kDeltas[rng.below(std::size(kDeltas))];
      d.reschedule(rng.below(d.tracked()), now + delta);
    }
    if ((op & 1023) == 0) d.check_sizes();
    now += static_cast<Time>(rng.below(512));
  }
  d.drain();
}

// A second run biased toward churn (cancel/reschedule dominate): the
// tombstone-compaction path runs constantly in both queues, which is
// where liveness bookkeeping bugs would hide.
TEST(QueueDifferential, ChurnHeavyMixMatchesReference) {
  des::Rng rng(0xC4A7u);
  Differ d;
  Time now = 0;
  std::uint64_t next_tag = 0;
  for (int op = 0; op < 120'000; ++op) {
    const std::uint32_t dice = rng.below(100);
    if (dice < 30 || d.queues_empty()) {
      const Time delta = kDeltas[rng.below(std::size(kDeltas))];
      d.schedule(now + delta, next_tag++);
    } else if (dice < 40) {
      d.pop_one();
    } else if (dice < 75 && d.tracked() > 0) {
      d.cancel(rng.below(d.tracked()));
    } else if (d.tracked() > 0) {
      const Time delta = kDeltas[rng.below(std::size(kDeltas))];
      d.reschedule(rng.below(d.tracked()), now + delta);
    }
    if ((op & 511) == 0) d.check_sizes();
    now += static_cast<Time>(rng.below(128));
  }
  d.drain();
}

}  // namespace
