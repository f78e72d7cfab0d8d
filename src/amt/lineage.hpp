// Task-lineage tracking for fail-stop crash recovery.
//
// Every task carries a lineage record: its phase (Pending -> Ready ->
// Done), its execution epoch (bumped each time the task must re-execute),
// and its home rank (the owner-computes rank, overridden when the owner
// dies).  The tracker is coordinator-side global knowledge, the same way
// the shared TaskGraphDef is: in a real deployment it corresponds to the
// replicated metadata a recovery coordinator maintains; in the simulation
// all nodes share one address space, so one instance serves every rank.
//
// Storage follows the access pattern: the phase is one byte per task,
// indexed by the graph's dense TaskGraphDef::task_id; epoch and home
// live in a sparse map holding only the tasks rearm() touched, so it
// stays empty in every crash-free run.
//
// The re-owner rule is deterministic: a task re-homes to
// survivors[hash(task) % |survivors|] with the survivor list sorted by
// rank, so any two runs with the same crash schedule re-home identically
// (the property the crash-soak determinism tests pin down).
//
// Epochs never travel on the wire — the ACTIVATE / GET DATA formats are
// untouched, which is what keeps crash-free runs bit-identical to the
// non-tolerant runtime.  Duplicate suppression is purely local: Done
// tasks ignore re-deliveries and refuse re-execution.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "amt/config.hpp"
#include "amt/task_graph.hpp"
#include "amt/task_key.hpp"

namespace amt {

enum class TaskPhase : std::uint8_t { Pending = 0, Ready, Done };

class LineageTracker {
 public:
  explicit LineageTracker(const TaskGraphDef& def)
      : def_(def), total_(def.total_tasks()) {}

  TaskPhase phase(const TaskKey& t) const { return phase_by_id(id(t)); }
  bool is_done(const TaskKey& t) const { return phase(t) == TaskPhase::Done; }
  /// The same, for a caller that already holds the task's dense id.
  TaskPhase phase_by_id(std::uint64_t i) const {
    return i < phase_.size() ? phase_[i] : TaskPhase::Pending;
  }
  bool is_done_by_id(std::uint64_t i) const {
    return phase_by_id(i) == TaskPhase::Done;
  }

  int epoch(const TaskKey& t) const {
    const Rearmed* r = rearmed(t);
    return r == nullptr ? 0 : r->epoch;
  }

  /// Effective home rank: the owner-computes rank until re-homed.
  int home(const TaskKey& t) const {
    const Rearmed* r = rearmed(t);
    return r == nullptr ? def_.rank_of(t) : r->home;
  }

  void mark_ready(const TaskKey& t) {
    TaskPhase& p = slot(id(t));
    if (p == TaskPhase::Pending) p = TaskPhase::Ready;
  }

  void mark_done(const TaskKey& t) {
    TaskPhase& p = slot(id(t));
    if (p != TaskPhase::Done) {
      p = TaskPhase::Done;
      ++done_;
    }
  }

  /// Deterministic re-owner rule (see file comment).  `survivors` must be
  /// sorted ascending.
  static int reowner(const TaskKey& t, const std::vector<int>& survivors) {
    return survivors[TaskKeyHash{}(t) % survivors.size()];
  }

  /// Re-arms a task for re-execution on a survivor: phase back to
  /// Pending, epoch bumped, home re-assigned.  Un-counts a Done task so
  /// the completion predicate stays exact.  Returns the new epoch.
  int rearm(const TaskKey& t, const std::vector<int>& survivors) {
    const std::uint64_t i = id(t);
    TaskPhase& p = slot(i);
    if (p == TaskPhase::Done) --done_;
    p = TaskPhase::Pending;
    Rearmed& r = rearmed_[i];
    r.home = reowner(t, survivors);
    return ++r.epoch;
  }

  /// True once any task was re-homed; until then home() == rank_of()
  /// for every task.
  bool rehomed() const { return !rearmed_.empty(); }

  /// Number of distinct tasks currently Done.
  std::uint64_t done_count() const { return done_; }

 private:
  struct Rearmed {
    std::int32_t epoch = 0;
    std::int32_t home = 0;
  };

  std::uint64_t id(const TaskKey& t) const {
    const std::uint64_t i = def_.task_id(t);
    assert(i < total_ && "task_id outside [0, total_tasks())");
    return i;
  }
  /// The phase array is filled at the first write, once the run is under
  /// way; until then every task reads Pending.  Filling it in the
  /// constructor would put a byte per task into every set-up.
  TaskPhase& slot(std::uint64_t i) {
    if (phase_.empty()) phase_.assign(total_, TaskPhase::Pending);
    return phase_[i];
  }
  const Rearmed* rearmed(const TaskKey& t) const {
    if (rearmed_.empty()) return nullptr;
    const auto it = rearmed_.find(id(t));
    return it == rearmed_.end() ? nullptr : &it->second;
  }

  const TaskGraphDef& def_;
  std::uint64_t total_;
  std::vector<TaskPhase> phase_;                        ///< by task_id
  std::unordered_map<std::uint64_t, Rearmed> rearmed_;  ///< by task_id
  std::uint64_t done_ = 0;
};

/// Shared fault state: owned by the Runtime, consulted by every
/// NodeRuntime through a raw pointer (null when tolerance is off, so the
/// fault-free hot path never even branches on configuration).
struct FaultState {
  explicit FaultState(const TaskGraphDef& def, FaultToleranceConfig c)
      : cfg(c), lineage(def) {}

  FaultToleranceConfig cfg;
  LineageTracker lineage;
  std::vector<char> node_dead;  ///< AMT-confirmed dead (sticky)
  RunStatus status = RunStatus::Ok;

  bool alive(int rank) const {
    return node_dead.empty() ||
           node_dead[static_cast<std::size_t>(rank)] == 0;
  }
  std::vector<int> survivors() const {
    std::vector<int> s;
    for (std::size_t r = 0; r < node_dead.size(); ++r) {
      if (node_dead[r] == 0) s.push_back(static_cast<int>(r));
    }
    return s;  // ascending by construction
  }
  void fail(RunStatus s) {
    if (status == RunStatus::Ok) status = s;
  }
};

}  // namespace amt
