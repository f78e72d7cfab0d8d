// SimThread: a serialized executor modeling one pinned OS thread.
//
// PaRSEC's communication thread and the LCI backend's progress thread are
// SimThreads; amt's worker threads are rows of a per-node table (see
// ChargeTarget below).  Work items run one at a time; each
// occupies the thread for a modeled duration, so a slow active-message
// callback delays everything queued behind it — the §4.3 bottleneck the
// paper describes emerges directly from this serialization.
//
// An item's function executes when its modeled duration elapses.  Code
// inside an item may call charge(extra) when the cost depends on what the
// item discovered (e.g. per-message matching cost); the extra time delays
// subsequent items and counts toward busy-time statistics.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "des/engine.hpp"
#include "des/ring.hpp"
#include "des/time.hpp"
#include "des/trace_sink.hpp"

namespace des {

/// What charge_current() charges: the simulated thread whose work item is
/// executing.  A SimThread is one; amt's worker rows are the other kind,
/// so a worker needs no SimThread of its own.  Only one work item
/// executes at a time in the whole simulation, so the running item's
/// charge is held once, next to current(), and a target carries only the
/// namer of its trace track.  The charge path makes no virtual call.
class ChargeTarget {
 public:
  /// Names the trace track of each target that points at it.  Asked only
  /// while tracing.
  class Namer {
   public:
    virtual std::string track_name(const ChargeTarget& target) const = 0;

   protected:
    ~Namer() = default;
  };

  explicit ChargeTarget(const Namer& namer) : namer_(&namer) {}
  ChargeTarget(const ChargeTarget&) = delete;
  ChargeTarget& operator=(const ChargeTarget&) = delete;

  /// The target whose work item is executing, or nullptr when the engine
  /// is running a non-thread event (NIC delivery, test driver).  Libraries
  /// use this to charge per-call CPU costs to their caller, and mmpi its
  /// identity to tell one calling thread from another.
  static ChargeTarget* current() { return current_; }

  /// Extra time charged so far by the executing item (0 outside any
  /// item).  Tracing uses the deltas to lay out sub-spans (callbacks)
  /// within one work item.
  static Duration pending_charge() { return charge_; }

  std::string track_name() const { return namer_->track_name(*this); }

  /// Runs `fn` as a work item of this target and returns the time it
  /// charged.
  template <class F>
  Duration run_charged(F&& fn) {
    ChargeTarget* const prev = current_;
    const Duration prev_charge = charge_;
    current_ = this;
    charge_ = 0;
    fn();
    const Duration charged = charge_;
    current_ = prev;
    charge_ = prev_charge;
    return charged;
  }

 private:
  friend void charge_current(Duration cost);

  const Namer* namer_;

  inline static ChargeTarget* current_ = nullptr;
  inline static Duration charge_ = 0;
};

/// Charges `cost` to the currently executing thread, if any.  Calls made
/// from outside any simulated thread (tests, drivers) are free — convenient
/// and harmless since such callers model no CPU.
inline void charge_current(Duration cost) {
  assert(cost >= 0);
  if (ChargeTarget::current_ != nullptr) ChargeTarget::charge_ += cost;
}

class SimThread : public ChargeTarget {
 public:
  SimThread(Engine& engine, std::string name)
      : ChargeTarget(kNamer), eng_(engine), name_(std::move(name)),
        created_at_(engine.now()) {}

  Engine& engine() { return eng_; }
  const std::string& name() const { return name_; }

  /// Enqueues a work item that occupies this thread for `cost` and then
  /// executes `fn`.  Items run in FIFO order.  `label` (a string with
  /// static lifetime) names the item's occupancy span when tracing is on.
  void post_work(Duration cost, EventQueue::Callback fn,
                 const char* label = nullptr) {
    assert(cost >= 0);
    if (dispatch_pending_ || in_item_) {
      queue_.push_back(Item{cost, std::move(fn), label});
      return;
    }
    // An idle thread starts the item at once (the queue is empty then):
    // threads that never queue a second item never allocate a queue.
    assert(queue_.empty());
    dispatch(Item{cost, std::move(fn), label});
  }

  /// Enqueues a zero-cost item (bookkeeping that is modeled as free).
  void post(EventQueue::Callback fn) { post_work(0, std::move(fn)); }

  /// From inside a running item: occupies the thread for `extra` more time
  /// before the next item may start.
  void charge(Duration extra) {
    assert(in_item_ && current() == this && "charge() outside of a work item");
    charge_current(extra);
  }

  /// True while a work item body is executing (or scheduled to finish later
  /// than now) — i.e. the modeled thread is occupied.
  bool busy() const { return in_item_ || dispatch_pending_ || !queue_.empty(); }

  /// Earliest time a newly posted item could start executing.
  Time free_at() const { return free_at_; }

  std::size_t queued_items() const { return queue_.size(); }

  /// Total modeled time this thread spent executing items.
  Duration busy_time() const { return busy_total_; }

  /// Fraction of lifetime spent busy; 0 if no time has elapsed.
  double utilization() const {
    const Duration alive = eng_.now() - created_at_;
    if (alive <= 0) return 0.0;
    return static_cast<double>(busy_total_) / static_cast<double>(alive);
  }

 private:
  struct TrackNamer final : ChargeTarget::Namer {
    std::string track_name(const ChargeTarget& t) const override {
      return static_cast<const SimThread&>(t).name_;
    }
  };
  inline static const TrackNamer kNamer{};

  struct Item {
    Duration cost;
    EventQueue::Callback fn;
    const char* label = nullptr;
  };

  // Only one item is in flight per thread, so the dispatched item parks in
  // running_ and the scheduled closure captures just `this` — it always
  // fits InplaceCallback's inline storage, keeping the per-item event
  // allocation-free even when the item's own fn carries a large capture.
  void pump() {
    if (dispatch_pending_ || in_item_ || queue_.empty()) return;
    dispatch(queue_.pop_front());
  }

  void dispatch(Item&& item) {
    dispatch_pending_ = true;
    running_ = std::move(item);
    running_start_ = std::max(eng_.now(), free_at_);
    eng_.schedule_at(running_start_ + running_.cost,
                     [this]() { run_item(); });
  }

  void run_item() {
    Item item = std::move(running_);  // fn may post work and re-pump
    dispatch_pending_ = false;
    in_item_ = true;
    const Duration extra = run_charged(item.fn);
    in_item_ = false;
    free_at_ = eng_.now() + extra;
    busy_total_ += item.cost + extra;
    if (TraceSink* sink = eng_.trace_sink()) {
      const Duration occupied = item.cost + extra;
      if (occupied > 0) {
        sink->span(name_, item.label ? item.label : "work", running_start_,
                   occupied);
      }
    }
    pump();
  }

  Engine& eng_;
  std::string name_;
  Ring<Item> queue_;
  Item running_{};
  Time running_start_ = 0;
  Time free_at_ = 0;
  Time created_at_ = 0;
  Duration busy_total_ = 0;
  bool in_item_ = false;
  bool dispatch_pending_ = false;
};

/// Emits one end of a causal flow arrow at the current charged-local time
/// on the current thread's track ("events" outside any thread).  Sim
/// time does not advance inside a work item, so the timestamp is laid at
/// now() + charge-so-far — the same layout rule ChargeSpan uses — which
/// binds the arrow end to the sub-span being traced around it.  No-op when
/// no sink is installed.
inline void emit_flow(Engine& engine, std::string_view name,
                      std::uint64_t id, bool begin) {
  TraceSink* const sink = engine.trace_sink();
  if (sink == nullptr) return;
  const ChargeTarget* const t = ChargeTarget::current();
  const Time ts = engine.now() + ChargeTarget::pending_charge();
  sink->flow(t ? t->track_name() : "events", name, ts, id, begin);
}

/// RAII trace span covering the simulated CPU time charged to the current
/// thread while it is alive.  Sim time does not advance inside a work
/// item, so the span is laid out at now() + charge-so-far: consecutive
/// ChargeSpans within one item render sequentially, nested inside the
/// item's occupancy span.  Construct only when engine.trace_sink() is
/// non-null (callers guard, so name formatting is never paid when off).
class ChargeSpan {
 public:
  ChargeSpan(Engine& engine, std::string name)
      : sink_(engine.trace_sink()), name_(std::move(name)) {
    assert(sink_ && "ChargeSpan requires an installed trace sink");
    thread_ = ChargeTarget::current();
    charge0_ = ChargeTarget::pending_charge();
    start_ = engine.now() + charge0_;
  }
  ChargeSpan(const ChargeSpan&) = delete;
  ChargeSpan& operator=(const ChargeSpan&) = delete;
  ~ChargeSpan() {
    const Duration dur = ChargeTarget::pending_charge() - charge0_;
    sink_->span(thread_ ? thread_->track_name() : "events", name_, start_,
                dur >= 0 ? dur : 0);
  }

 private:
  TraceSink* sink_;
  const ChargeTarget* thread_ = nullptr;
  std::string name_;
  Time start_ = 0;
  Duration charge0_ = 0;
};

}  // namespace des
