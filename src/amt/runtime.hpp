// The distributed runtime: one NodeRuntime per simulated node, a shared
// TaskGraphDef, and the execution driver.
//
// With fault tolerance enabled (RuntimeConfig::ft.enabled) the Runtime
// also acts as the recovery coordinator: it owns the shared FaultState,
// listens for confirmed peer deaths (failure-detector verdicts when a
// detector is wired, ground-truth fabric crash notifications otherwise),
// and re-homes the dead node's unfinished lineage onto survivors.  When
// tolerance is off the hot path is byte-identical to the pre-recovery
// runtime (no FaultState is ever allocated; NodeRuntimes see a null
// pointer and take the exact legacy branches).
#pragma once

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "ce/world.hpp"
#include "des/engine.hpp"
#include "net/fabric.hpp"
#include "amt/config.hpp"
#include "amt/lineage.hpp"
#include "amt/node_runtime.hpp"
#include "amt/task_graph.hpp"

namespace obs {
class Timeline;
}

namespace amt {

class Runtime {
 public:
  Runtime(des::Engine& engine, net::Fabric& fabric, ce::CommWorld& comm,
          TaskGraphDef& def, RuntimeConfig cfg = {});
  // The nodes hold references to stats_ and callbacks hold `this`.
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes the task graph to completion.  Returns the makespan
  /// (simulated time from call to global quiescence).  Under fault
  /// tolerance the run may instead end with run_status() != Ok — an
  /// unrecoverable loss fails closed, it never aborts.
  des::Duration run();

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  NodeRuntime& node(int rank) {
    return *nodes_.at(static_cast<std::size_t>(rank));
  }

  /// Ok on fault-free or fully recovered runs; an error status when the
  /// graph could not be completed.  Always Ok with tolerance disabled.
  RunStatus run_status() const {
    return ft_ != nullptr ? ft_->status : RunStatus::Ok;
  }
  /// The shared fault state (null when tolerance is off).
  const FaultState* fault_state() const { return ft_.get(); }

  /// Recovery entry point: re-homes `dead_rank`'s unfinished lineage onto
  /// survivors and re-announces lost inputs.  Idempotent; normally driven
  /// by the failure detector (or the fabric crash handler when no
  /// detector is wired), public so tests can inject verdicts directly.
  void on_peer_dead(int dead_rank);

  /// Attaches a timeline sampler for recovery phase marks (the span from
  /// a confirmed death to run end shows up in the bottleneck report's
  /// phase attribution).  Null detaches; not owned.
  void set_timeline(obs::Timeline* tl) { timeline_ = tl; }

  /// The run's counters and histograms, with the critical path taken
  /// over every node.
  NodeStats aggregate_stats() const;
  std::uint64_t total_tasks_executed() const;
  /// Distinct tasks completed: re-executions after a crash do not add,
  /// so an Ok run reports the graph size.
  std::uint64_t tasks_done() const {
    return ft_ != nullptr ? ft_->lineage.done_count() : total_tasks_executed();
  }
  /// Aggregate worker busy time across all nodes.
  des::Duration total_worker_busy() const;

 private:
  /// Lazily enumerates the whole graph (depth-first from every rank's
  /// source tasks) into all_tasks_ and the producer arrays.  Only ever
  /// built on the first confirmed death — fault-free runs never pay for
  /// it.
  void build_graph_index();
  des::Duration run_tolerant(des::Time start);

  des::Engine& eng_;
  TaskGraphDef& def_;
  RuntimeConfig cfg_;
  NodeStats stats_;  ///< every node records here; crit stays per node
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  obs::Timeline* timeline_ = nullptr;

  // --- fault tolerance ---------------------------------------------------
  std::unique_ptr<FaultState> ft_;  ///< null = tolerance off
  ce::FailureDetectorDomain* detector_ = nullptr;  ///< may be null
  bool fd_recovery_ = false;  ///< verdicts come from the failure detector
  bool graph_indexed_ = false;
  std::vector<TaskKey> all_tasks_;
  /// Every input edge as (input index, producing flow), grouped by the
  /// consumer's task_id: the edges of task `id` are producers_[e] for e in
  /// [producer_begin_[id], producer_begin_[id + 1]), in the order the
  /// graph walk met them.
  std::vector<std::uint32_t> producer_begin_;
  std::vector<std::pair<int, FlowKey>> producers_;
};

}  // namespace amt
