// The discrete-event simulation engine.
//
// One Engine instance owns simulated time for an entire simulated cluster.
// All components (NICs, simulated threads, runtimes) schedule callbacks on
// it; the engine fires them in (time, insertion) order.  The engine is
// strictly single-(OS-)threaded: determinism comes from the total event
// order, and "parallelism" is modeled, not real.
//
// Events live in one EventQueue.  Callers that know which simulated node
// an event belongs to tag it with that node's owner id via schedule_on(),
// so a node crash can cancel exactly its events (cancel_owner) and probes
// can read a per-node depth (owner_pending); everything else is owner 0.
// The tag never changes when an event fires.
#pragma once

#include <cassert>
#include <utility>

#include "des/event_queue.hpp"
#include "des/time.hpp"

namespace des {

class TraceSink;

/// Periodic simulated-time observation hook (see Engine::set_sampler).
///
/// The engine never schedules sampler work as events: doing so would
/// consume global sequence numbers (perturbing the total event order every
/// determinism pin relies on) and a self-rescheduling periodic event would
/// keep run() from ever draining.  Instead the engine compares each popped
/// event's timestamp against the sampler's next due time — one integer
/// compare per step when sampling is armed, and the same one compare
/// against kTimeNever when it is not.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// The next event to fire carries timestamp `now` >= the previously
  /// returned due time.  The implementation records samples for every due
  /// boundary <= `now` (the observable state is exactly "all events
  /// strictly before the boundary have fired") and returns the next due
  /// time, or kTimeNever to stop sampling.
  virtual Time on_sample(Time now) = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now()).  Accepts any
  /// void() callable, forwarded straight into the queue's slab slot; small
  /// captures stay heap-free (des::InplaceCallback).
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    return queue_.schedule(guard_time(t), std::forward<F>(fn));
  }

  /// Schedules `fn` after `d` nanoseconds of simulated time.
  template <typename F>
  EventId schedule_after(Duration d, F&& fn) {
    assert(d >= 0);
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `t` on behalf of `owner` (one owner
  /// per simulated node by convention, 0 for global work).  The owner
  /// decides which crash cancels the event, never when it fires.
  template <typename F>
  EventId schedule_on(std::uint32_t owner, Time t, F&& fn) {
    return queue_.schedule_on(owner, guard_time(t), std::forward<F>(fn));
  }

  /// Cancels a pending event; returns false if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to absolute time `t` (>= now()), keeping its
  /// callback — cancel + schedule without the churn.  Returns false if the
  /// event already fired or was cancelled.
  bool reschedule(EventId id, Time t) {
    return queue_.reschedule(id, guard_time(t));
  }

  /// Cancels every pending event of `owner` (fail-stop node crash).
  /// Returns the number of events cancelled.
  std::size_t cancel_owner(std::uint32_t owner) {
    return queue_.cancel_owner(owner);
  }

  /// Fires the next event.  Returns false when no events remain.
  bool step() {
    if (queue_.empty()) return false;
    auto fired = queue_.pop();
    assert(fired.time >= now_);
    // Sampling happens between events: the popped event has not run yet,
    // so a sample at boundary t <= fired.time observes the state left by
    // every event that fired strictly before t.  Event order is untouched.
    if (fired.time >= sample_due_) {
      sample_due_ = sampler_->on_sample(fired.time);
    }
    now_ = fired.time;
    ++events_fired_;
    fired.fn();
    return true;
  }

  /// Fires the next event and every subsequent event carrying the SAME
  /// timestamp, in one call.  Simulated workloads are bursty — a message
  /// delivery fans out into several zero-delay follow-ups — and batching
  /// the burst amortizes the per-event front probe across the run.
  /// Semantics are identical to calling step() in a loop: events the
  /// batch schedules at the current time still join it (the front is
  /// re-probed after every callback), cancellations of same-time events
  /// are honored (each event is popped only when it is next to fire),
  /// and the sampler sees the same per-event boundary checks.  Returns
  /// the number of events fired — 0 when the queue was empty.
  std::size_t step_batch() {
    if (queue_.empty()) return 0;
    auto fired = queue_.pop();
    assert(fired.time >= now_);
    if (fired.time >= sample_due_) {
      sample_due_ = sampler_->on_sample(fired.time);
    }
    const Time t = fired.time;
    now_ = t;
    ++events_fired_;
    std::size_t n = 1;
    fired.fn();
    while (!queue_.empty() && queue_.next_time() == t) {
      auto next = queue_.pop();
      if (t >= sample_due_) sample_due_ = sampler_->on_sample(t);
      ++events_fired_;
      ++n;
      next.fn();
    }
    return n;
  }

  /// Runs until the event queue drains.
  void run() {
    while (step_batch() != 0) {
    }
  }

  /// Runs until the queue drains or simulated time would exceed `deadline`.
  /// Events at exactly `deadline` still fire.
  void run_until(Time deadline) {
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      step_batch();
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Runs until `done` returns true (checked after each event) or the queue
  /// drains.  Returns whether `done` was satisfied.  `done` is a template
  /// parameter: it runs once per event, so it inlines into the loop.
  template <typename Done>
  bool run_while_pending(Done&& done) {
    while (!done()) {
      if (!step()) return false;
    }
    return true;
  }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_fired() const { return events_fired_; }
  /// Event queues behind the engine: always one (reported by perfbench).
  std::size_t num_shards() const { return 1; }

  /// Past-time schedule/reschedule requests clamped to now() (only
  /// possible in builds with NDEBUG — see guard_time).  Nonzero means a
  /// caller holds a latent bug that debug builds would have asserted on.
  std::uint64_t past_schedules_clamped() const { return past_clamped_; }

  /// Pending events of one owner (shard_of(node) for per-node depth
  /// probes; owner 0 carries global timers).
  std::size_t owner_pending(std::uint32_t owner) const {
    return queue_.owner_pending(owner);
  }

  /// Arms (or, with null, disarms) the periodic sampler.  `first_due` is
  /// the first boundary worth observing; the sampler must outlive every
  /// subsequent step().  Sampling never perturbs event order — see
  /// Sampler.
  void set_sampler(Sampler* s, Time first_due = 0) {
    sampler_ = s;
    sample_due_ = s == nullptr ? kTimeNever : first_due;
  }
  Sampler* sampler() const { return sampler_; }

  /// Installs (or, with null, removes) the trace sink.  The sink must
  /// outlive every event that may emit into it.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  /// The installed trace sink, or null when tracing is off.  Producers
  /// must check for null before building event names.
  TraceSink* trace_sink() const { return trace_; }

 private:
  /// Validates a requested fire time against now().  This project builds
  /// with assertions enabled even in Release (CMakeLists strips
  /// -DNDEBUG), so the normal outcome of a past-time request is a loud
  /// assert.  If someone compiles with NDEBUG anyway, the guard FAILS
  /// CLOSED instead of vanishing: the request is clamped to now() and
  /// counted, so the event fires immediately after the current one —
  /// deterministic and order-preserving — rather than corrupting the
  /// queue's time order (the queue itself assumes monotone pops).
  /// Clamp-with-counter was chosen over a hard error because the engine
  /// is exception-free on the hot path and callers never check schedule
  /// results; see past_schedules_clamped() for detection.
  Time guard_time(Time t) {
    assert(t >= now_ && "cannot schedule into the past");
    if (t < now_) {
      ++past_clamped_;
      return now_;
    }
    return t;
  }

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t events_fired_ = 0;
  std::uint64_t past_clamped_ = 0;
  TraceSink* trace_ = nullptr;
  Sampler* sampler_ = nullptr;
  Time sample_due_ = kTimeNever;
};

}  // namespace des
