// SimThread: the occupancy rule of one pinned OS thread; PollThread: a
// polling loop on one.
//
// PaRSEC's communication thread and the LCI backend's progress thread are
// PollThreads; amt's worker threads are rows of a per-node table that
// derive from SimThread.  A thread runs one item at a time; each occupies
// it for a modeled cost, and code inside the item may charge more
// (charge_current) when the cost depends on what it discovered (e.g.
// per-message matching cost).  The extra time delays the thread's next
// item and counts toward its busy time, so a slow active-message callback
// delays everything behind it: the §4.3 bottleneck the paper describes
// emerges directly from this serialization.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "des/engine.hpp"
#include "des/time.hpp"
#include "des/trace_sink.hpp"

namespace des {

/// What charge_current() charges: the simulated thread (a SimThread) whose
/// work item is executing.  Only one work item executes at a time in the
/// whole simulation, so the running item's charge is held once, next to
/// current(), and a target carries only the namer of its trace track.  The
/// charge path makes no virtual call.
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

 protected:
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

/// A ChargeTarget with the occupancy rule: an item of modeled `cost`
/// scheduled at `now` ends at max(now, busy_until) + cost; what its body
/// charges then keeps the thread busy past that end.  The owner schedules
/// items with schedule_item and runs each from the scheduled callback with
/// run_item; the thread holds no queue, so an owner with a next item
/// schedules it when the current one has run.
class SimThread : public ChargeTarget {
 public:
  explicit SimThread(const Namer& namer) : ChargeTarget(namer) {}

  /// Charged-busy horizon: the earliest time a new item could start.
  Time busy_until() const { return busy_until_; }
  /// Total modeled time this thread spent executing items.
  Duration busy_time() const { return busy_; }

  /// Schedules an item occupying this thread for `cost`: `fire` runs when
  /// the item ends and must call run_item with the same cost.
  template <class F>
  EventId schedule_item(Engine& eng, Duration cost, F&& fire) {
    assert(cost >= 0);
    return eng.schedule_at(std::max(eng.now(), busy_until_) + cost,
                           std::forward<F>(fire));
  }

  /// Runs the body of an item of `cost` ending now, charging it to this
  /// thread, and accounts for it: busy until now + what the body charged.
  /// When tracing, the item is one span named `label` (a string with
  /// static lifetime) from its start.
  template <class F>
  void run_item(Engine& eng, Duration cost, const char* label, F&& body) {
    const Duration charged = run_charged(body);
    const Duration occupied = cost + charged;
    busy_until_ = eng.now() + charged;
    busy_ += occupied;
    if (TraceSink* sink = eng.trace_sink()) {
      if (occupied > 0) {
        sink->span(track_name(), label, eng.now() - cost, occupied);
      }
    }
  }

 private:
  Time busy_until_ = 0;
  Duration busy_ = 0;
};
static_assert(sizeof(SimThread) == 24, "SimThread grew past 24 bytes");

/// A polling loop on its own simulated thread.
///
/// Real progress/communication threads spin, polling for work.  A naive
/// simulated spin loop would generate events forever and the simulation
/// would never drain, so a PollThread is event-driven: while the body
/// reports work it runs again (paying `iteration_cost` per pass, like a
/// real poll); when the body reports idle the thread parks until wake() is
/// called (by a NIC delivery hook, a command enqueue, ...).  This preserves
/// the timing behaviour of busy polling — a parked thread resumes
/// immediately on wake — without the event-queue livelock.
class PollThread final : public SimThread {
 public:
  /// `body` returns true when it did work (keeps the loop hot).  The
  /// thread starts parked: the first wake() starts polling.
  PollThread(Engine& engine, std::string name, Duration iteration_cost,
             std::function<bool()> body)
      : SimThread(kNamer), eng_(engine), name_(std::move(name)),
        iteration_cost_(iteration_cost), body_(std::move(body)) {}
  PollThread(const PollThread&) = delete;
  PollThread& operator=(const PollThread&) = delete;
  /// A pending iteration never fires after its thread is gone.
  ~PollThread() {
    if (pending_ != kInvalidEvent) eng_.cancel(pending_);
  }

  /// Signals that work may be available.  A parked thread schedules its
  /// next iteration at once; a wake during the thread's own body makes it
  /// iterate again, scheduled once that iteration is accounted for; a
  /// pending iteration absorbs the wake.  Safe to call from any simulation
  /// context.
  void wake() {
    wake_ = true;
    if (pending_ == kInvalidEvent && current() != this) arm();
  }

 private:
  struct TrackNamer final : ChargeTarget::Namer {
    std::string track_name(const ChargeTarget& t) const override {
      return static_cast<const PollThread&>(t).name_;
    }
  };
  inline static const TrackNamer kNamer{};

  void arm() {
    pending_ = schedule_item(eng_, iteration_cost_, [this]() { iterate(); });
  }

  void iterate() {
    pending_ = kInvalidEvent;
    wake_ = false;
    bool worked = false;
    run_item(eng_, iteration_cost_, "poll", [&]() { worked = body_(); });
    if (worked || wake_) arm();
  }

  Engine& eng_;
  std::string name_;
  Duration iteration_cost_;
  std::function<bool()> body_;
  EventId pending_ = kInvalidEvent;
  bool wake_ = false;  ///< a wake arrived since the iteration began
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
