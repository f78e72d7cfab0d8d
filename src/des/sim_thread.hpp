// SimThread: a serialized executor modeling one pinned OS thread.
//
// PaRSEC's communication thread, the LCI backend's progress thread, and
// worker threads are all SimThreads.  Work items run one at a time; each
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

class SimThread {
 public:
  SimThread(Engine& engine, std::string name)
      : eng_(engine), name_(std::move(name)), created_at_(engine.now()) {}
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

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
    assert(in_item_ && "charge() outside of a work item");
    assert(extra >= 0);
    extra_charge_ += extra;
  }

  /// Extra time charged so far by the currently running item.  Tracing uses
  /// the deltas to lay out sub-spans (callbacks) within one work item.
  Duration pending_charge() const { return extra_charge_; }

  /// The SimThread whose work item is currently executing, or nullptr when
  /// the engine is running a non-thread event (NIC delivery, test driver).
  /// Libraries use this to charge per-call CPU costs to their caller.
  static SimThread* current() { return current_; }

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
    extra_charge_ = 0;
    SimThread* const prev = current_;
    current_ = this;
    item.fn();
    current_ = prev;
    in_item_ = false;
    free_at_ = eng_.now() + extra_charge_;
    busy_total_ += item.cost + extra_charge_;
    if (TraceSink* sink = eng_.trace_sink()) {
      const Duration occupied = item.cost + extra_charge_;
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
  Duration extra_charge_ = 0;
  bool in_item_ = false;
  bool dispatch_pending_ = false;

  inline static SimThread* current_ = nullptr;
};

/// Charges `cost` to the currently executing SimThread, if any.  Calls made
/// from outside any simulated thread (tests, drivers) are free — convenient
/// and harmless since such callers model no CPU.
inline void charge_current(Duration cost) {
  if (SimThread* t = SimThread::current()) t->charge(cost);
}

/// Emits one end of a causal flow arrow at the current charged-local time
/// on the current SimThread's track ("events" outside any thread).  Sim
/// time does not advance inside a work item, so the timestamp is laid at
/// now() + charge-so-far — the same layout rule ChargeSpan uses — which
/// binds the arrow end to the sub-span being traced around it.  No-op when
/// no sink is installed.
inline void emit_flow(Engine& engine, std::string_view name,
                      std::uint64_t id, bool begin) {
  TraceSink* const sink = engine.trace_sink();
  if (sink == nullptr) return;
  SimThread* const t = SimThread::current();
  const Time ts = engine.now() + (t ? t->pending_charge() : 0);
  sink->flow(t ? t->name() : "events", name, ts, id, begin);
}

/// RAII trace span covering the simulated CPU time charged to the current
/// SimThread while it is alive.  Sim time does not advance inside a work
/// item, so the span is laid out at now() + charge-so-far: consecutive
/// ChargeSpans within one item render sequentially, nested inside the
/// item's occupancy span.  Construct only when engine.trace_sink() is
/// non-null (callers guard, so name formatting is never paid when off).
class ChargeSpan {
 public:
  ChargeSpan(Engine& engine, std::string name)
      : sink_(engine.trace_sink()), name_(std::move(name)) {
    assert(sink_ && "ChargeSpan requires an installed trace sink");
    thread_ = SimThread::current();
    charge0_ = thread_ ? thread_->pending_charge() : 0;
    start_ = engine.now() + charge0_;
  }
  ChargeSpan(const ChargeSpan&) = delete;
  ChargeSpan& operator=(const ChargeSpan&) = delete;
  ~ChargeSpan() {
    const Duration dur =
        (thread_ ? thread_->pending_charge() : 0) - charge0_;
    sink_->span(thread_ ? thread_->name() : "events", name_, start_,
                dur >= 0 ? dur : 0);
  }

 private:
  TraceSink* sink_;
  SimThread* thread_ = nullptr;
  std::string name_;
  Time start_ = 0;
  Duration charge0_ = 0;
};

}  // namespace des
