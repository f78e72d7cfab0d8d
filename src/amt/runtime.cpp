#include "amt/runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"

namespace amt {

namespace {

/// One recovery re-announce: a flow sent to a destination rank.
struct Announcement {
  FlowKey flow;
  int dst = 0;
  friend bool operator==(const Announcement&, const Announcement&) = default;
};

struct AnnouncementHash {
  std::size_t operator()(const Announcement& a) const {
    return FlowKeyHash{}(a.flow) * 31 + static_cast<std::uint32_t>(a.dst);
  }
};

}  // namespace

Runtime::Runtime(des::Engine& engine, net::Fabric& fabric,
                 ce::CommWorld& comm, TaskGraphDef& def, RuntimeConfig cfg)
    : eng_(engine), def_(def), cfg_(std::move(cfg)) {
  if (cfg_.ft.enabled) {
    ft_ = std::make_unique<FaultState>(def_, cfg_.ft);
    ft_->node_dead.assign(static_cast<std::size_t>(fabric.num_nodes()), 0);
  }
  nodes_.reserve(static_cast<std::size_t>(fabric.num_nodes()));
  for (int r = 0; r < fabric.num_nodes(); ++r) {
    nodes_.push_back(std::make_unique<NodeRuntime>(
        engine, r, comm.engine(r), def, cfg_, stats_, ft_.get()));
  }
  if (ft_ != nullptr) {
    // Detection source: failure-detector verdicts when the comm world has
    // one (realistic detection latency), ground-truth fabric crash
    // notifications otherwise (zero-latency recovery, for unit tests).
    ce::FailureDetectorDomain* const fd = comm.failure_detector();
    detector_ = fd;
    fd_recovery_ = fd != nullptr;
    if (fd != nullptr) {
      fd->subscribe([this](int /*node*/, int peer, ce::PeerState st) {
        if (st == ce::PeerState::Dead) on_peer_dead(peer);
      });
    }
    // The crash handler always marks the corpse so its queued owner-0 work
    // items (workers, comm loop) become no-ops.  AMT death is sticky: a
    // fabric restart revives the ce level only; the node stays out of the
    // work pool (graceful degradation).
    fabric.add_crash_handler([this, &comm](net::NodeId n, bool up) {
      const int rank = static_cast<int>(n);
      if (up) {
        // A restart before the detector's verdict revives the ce level, so
        // the node answers heartbeats again and no verdict ever re-homes
        // its lost work: recover it now, as ground truth does at crash
        // time.  After a verdict this is a no-op.
        if (fd_recovery_ && ft_->node_dead[static_cast<std::size_t>(n)] == 0) {
          comm.peer_failed(rank);
          on_peer_dead(rank);
        }
        return;
      }
      nodes_[static_cast<std::size_t>(n)]->mark_crashed();
      if (!fd_recovery_) {
        // Ground-truth recovery: purge the comm level first (the detector
        // path does this via its Dead-verdict subscriber), then re-home.
        comm.peer_failed(rank);
        on_peer_dead(rank);
      }
    });
  }
}

des::Duration Runtime::run() {
  const des::Time start = eng_.now();
  for (auto& n : nodes_) n->start();
  if (ft_ != nullptr) return run_tolerant(start);
  eng_.run();
  const std::uint64_t executed = total_tasks_executed();
  assert(executed == def_.total_tasks() &&
         "runtime quiesced before completing all tasks (deadlock?)");
  (void)executed;
  // The engine quiesces at the last event, but the final tasks' charged
  // compute still has to elapse on their workers; without it the makespan
  // would end before the critical path's last task finishes.
  des::Time end = eng_.now();
  for (const auto& n : nodes_) end = std::max(end, n->threads_free_at());
  return end - start;
}

des::Duration Runtime::run_tolerant(des::Time start) {
  const std::uint64_t total = def_.total_tasks();
  const LineageTracker& lin = ft_->lineage;
  // Failure-detector heartbeat timers keep the event queue non-empty
  // forever, so the engine cannot quiesce on its own: run until every
  // distinct task is Done (re-executions un-count, so the predicate is
  // exact), the run failed closed, or nothing completes for longer than
  // the stall timeout (a lost-task deadlock the coordinator missed).
  des::Time last_progress = eng_.now();
  std::uint64_t last_done = lin.done_count();
  const auto done = [&]() {
    if (ft_->status != RunStatus::Ok) return true;
    const std::uint64_t d = lin.done_count();
    if (d >= total) return true;
    if (d != last_done) {
      last_done = d;
      last_progress = eng_.now();
    } else if (eng_.now() - last_progress > ft_->cfg.stall_timeout) {
      ft_->fail(RunStatus::ErrDeadlock);
      return true;
    }
    return false;
  };
  if (!eng_.run_while_pending(done) && lin.done_count() < total &&
      ft_->status == RunStatus::Ok) {
    // Queue drained with work remaining: structural deadlock.
    ft_->fail(RunStatus::ErrDeadlock);
  }
  if (ft_->status == RunStatus::Ok) {
    // Completion: stop the detector's periodic heartbeats so the
    // remaining in-flight events (data retirements, ACKs) can drain.
    // Draining keeps the quiescence point — and therefore the makespan —
    // identical to the non-tolerant runtime on crash-free runs.
    if (detector_ != nullptr) detector_->stop();
    eng_.run();
  }
  if (ft_->status != RunStatus::Ok) {
    // Failed closed: stamp the terminal status into the cluster ring so a
    // post-mortem bundle ends with the verdict.
    obs::FlightRecorder::global().record(
        -1, obs::FlightKind::RunStatus, eng_.now(), 0,
        static_cast<std::uint64_t>(ft_->status));
  }
  // Makespan over surviving nodes only — a corpse's charged horizon is
  // not part of the completed schedule.
  des::Time end = eng_.now();
  for (const auto& n : nodes_) {
    if (!ft_->alive(n->rank())) continue;
    end = std::max(end, n->threads_free_at());
  }
  return end - start;
}

void Runtime::build_graph_index() {
  graph_indexed_ = true;
  const std::uint64_t total = def_.total_tasks();
  // The first walk records the visit order and counts each task's input
  // edges; the second replays the visits in that order and files every
  // edge under its consumer, so a task's producers keep the order the
  // walk met them in (recovery's pass 2 re-announces in that order).
  std::vector<char> seen(total, 0);
  producer_begin_.assign(total + 1, 0);
  std::vector<TaskKey> stack;
  std::vector<TaskKey> init;
  for (int r = 0; r < num_nodes(); ++r) {
    init.clear();
    def_.initial_tasks(r, init);
    for (const TaskKey& t : init) {
      char& s = seen[def_.task_id(t)];
      if (s == 0) {
        s = 1;
        stack.push_back(t);
      }
    }
  }
  std::vector<Dep> deps;
  while (!stack.empty()) {
    const TaskKey t = stack.back();
    stack.pop_back();
    all_tasks_.push_back(t);
    const int nout = def_.num_outputs(t);
    for (int f = 0; f < nout; ++f) {
      deps.clear();
      def_.successors(t, f, deps);
      for (const Dep& d : deps) {
        const std::uint64_t id = def_.task_id(d.task);
        ++producer_begin_[id + 1];
        if (seen[id] == 0) {
          seen[id] = 1;
          stack.push_back(d.task);
        }
      }
    }
  }
  assert(all_tasks_.size() == total && "graph walk did not reach every task");
  for (std::uint64_t i = 0; i < total; ++i) {
    producer_begin_[i + 1] += producer_begin_[i];
  }
  producers_.resize(producer_begin_[total]);
  std::vector<std::uint32_t> next(producer_begin_.begin(),
                                  producer_begin_.end() - 1);
  for (const TaskKey& t : all_tasks_) {
    const int nout = def_.num_outputs(t);
    for (int f = 0; f < nout; ++f) {
      deps.clear();
      def_.successors(t, f, deps);
      for (const Dep& d : deps) {
        producers_[next[def_.task_id(d.task)]++] = {d.input, FlowKey{t, f}};
      }
    }
  }
}

void Runtime::on_peer_dead(int dead_rank) {
  if (ft_ == nullptr) return;
  if (ft_->status != RunStatus::Ok) return;  // already failed closed
  char& flag = ft_->node_dead[static_cast<std::size_t>(dead_rank)];
  if (flag != 0) return;  // detector verdicts repeat per observer
  flag = 1;
  obs::FlightRecorder::global().record(
      -1, obs::FlightKind::Recovery, eng_.now(), 0,
      static_cast<std::uint64_t>(dead_rank));
  if (timeline_ != nullptr) {
    char mark[32];
    std::snprintf(mark, sizeof mark, "recovery.n%d", dead_rank);
    timeline_->mark_phase(mark, eng_.now());
  }
  const std::vector<int> survivors = ft_->survivors();
  if (survivors.empty()) {
    ft_->fail(RunStatus::ErrNoSurvivors);
    return;
  }
  if (!graph_indexed_) build_graph_index();
  LineageTracker& lin = ft_->lineage;

  // Drop protocol state wedged on the corpse on every survivor FIRST:
  // recovery re-announces must not be dup-dropped against fetches that
  // are about to be purged.
  for (const int r : survivors) {
    nodes_[static_cast<std::size_t>(r)]->purge_peer(dead_rank);
  }

  std::vector<TaskKey> work;
  const auto rearm = [&](const TaskKey& t) {
    const TaskPhase was = lin.phase(t);
    const int epoch = lin.rearm(t, survivors);
    if (epoch > ft_->cfg.max_epochs) {
      ft_->fail(RunStatus::ErrLineageExhausted);
      return false;
    }
    if (was != TaskPhase::Pending) {
      nodes_[static_cast<std::size_t>(lin.home(t))]->note_reexecuted();
    }
    work.push_back(t);
    return true;
  };

  // Pass 1: every not-Done task homed on a dead node re-homes to a
  // survivor (deterministic hash rule).  Done-on-dead tasks are left
  // alone here — their outputs are re-produced lazily in pass 2, only if
  // a consumer still needs them.
  for (const TaskKey& t : all_tasks_) {
    if (ft_->alive(lin.home(t))) continue;
    if (lin.is_done(t)) continue;
    if (!rearm(t)) return;
  }

  // Pass 2: make every Pending task runnable again.  Each missing input
  // either has a not-Done producer that will (re-)deliver naturally, or a
  // Done producer whose cached output an alive holder re-announces, or a
  // Done-on-dead producer whose sub-lineage must re-execute (cascades via
  // the worklist).  The seed sweep below already covers pass 1's rearms.
  // A flow goes to each other node at most once per pass: the node
  // handles the ACTIVATE after the pass, so it finds every consumer the
  // pass homed there.  A hand-over on the holder itself is immediate and
  // reaches only the consumers homed there so far, so a consumer the
  // pass re-arms later gets its own.
  work.clear();
  for (const TaskKey& t : all_tasks_) {
    if (lin.phase(t) == TaskPhase::Pending) work.push_back(t);
  }
  std::unordered_set<Announcement, AnnouncementHash> announced;
  while (!work.empty() && ft_->status == RunStatus::Ok) {
    const TaskKey t = work.back();
    work.pop_back();
    if (lin.phase(t) != TaskPhase::Pending) continue;
    NodeRuntime& home = *nodes_[static_cast<std::size_t>(lin.home(t))];
    if (def_.num_inputs(t) == 0) {
      home.inject_source(t);
      continue;
    }
    const std::uint64_t id = def_.task_id(t);
    assert(producer_begin_[id] < producer_begin_[id + 1] &&
           "task with inputs but no producers");
    for (std::uint32_t e = producer_begin_[id]; e < producer_begin_[id + 1];
         ++e) {
      const auto& [input, flow] = producers_[e];
      if (!home.input_unfilled(t, input)) continue;
      const TaskKey& p = flow.producer;
      if (!lin.is_done(p)) continue;  // will deliver on (re-)completion
      const int p_home = lin.home(p);
      if (ft_->alive(p_home)) {
        NodeRuntime& holder = *nodes_[static_cast<std::size_t>(p_home)];
        // A holder that crashed before the detector confirmed it never
        // answers: the request is lost.  Its own death verdict runs this
        // pass again and re-arms the producer then.
        if (holder.crashed()) continue;
        if (p_home != home.rank() &&
            !announced.insert({flow, home.rank()}).second) {
          continue;
        }
        if (!holder.reannounce(flow, home.rank())) {
          // Done producer, alive home, no cached copy: the tile is gone.
          ft_->fail(RunStatus::ErrTileLost);
          return;
        }
      } else if (!rearm(p)) {
        return;  // lost output: re-execute the producing sub-lineage
      }
    }
  }
}

NodeStats Runtime::aggregate_stats() const {
  NodeStats total = stats_;
  // Rank order keeps CriticalPath's first-maximum tie rule deterministic.
  for (const auto& n : nodes_) total.crit.merge(n->crit());
  return total;
}

std::uint64_t Runtime::total_tasks_executed() const {
  return stats_.tasks_executed;
}

des::Duration Runtime::total_worker_busy() const {
  des::Duration n = 0;
  for (const auto& node : nodes_) n += node->worker_busy_time();
  return n;
}

}  // namespace amt
