// Per-node runtime: scheduler, worker threads, and the communication
// thread implementing the ACTIVATE / GET DATA protocol of §4.1.
//
// Lifecycle of a remote dataflow (paper Fig. 1):
//   1. Task A completes on this node.  For each output flow the epilogue
//      finds the successors; local ones get the data copy immediately,
//      remote ranks become a multicast: direct children receive ACTIVATE
//      records (with the subtree each must forward to), and the produced
//      copy parks in the outgoing table awaiting GET DATA.
//   2. ACTIVATE records are queued per destination and aggregated by the
//      communication thread into one AM per destination (§4.3) — unless
//      mt_activate is set, in which case the worker sends them directly
//      (§6.4.3).
//   3. A destination unpacks each record, evaluates the priority of its
//      local successors, and enqueues a fetch.  The fetch queue is
//      priority-ordered and capped; GET DATA carries the receive buffer
//      registration.
//   4. The data holder answers GET DATA with put(); the put's remote
//      completion releases local dependencies, records latency (hop and
//      root-to-here), and triggers subtree forwarding.
#pragma once

#include <cstdint>
#include <deque>
#include <memory_resource>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "ce/comm_engine.hpp"
#include "des/sim_thread.hpp"
#include "des/slab.hpp"
#include "amt/config.hpp"
#include "amt/lineage.hpp"
#include "amt/pools.hpp"
#include "amt/task_graph.hpp"
#include "amt/task_key.hpp"
#include "amt/wire.hpp"

namespace amt {

class NodeRuntime final : private des::ChargeTarget::Namer {
 public:
  /// `stats` is the run's one record, shared by every node.  `ft` is the
  /// runtime-wide fault state; null disables fault tolerance entirely
  /// (the fault-free hot path is then byte-identical to the pre-recovery
  /// runtime).
  NodeRuntime(des::Engine& engine, int rank, ce::CommEngine& comm,
              TaskGraphDef& def, const RuntimeConfig& cfg, NodeStats& stats,
              FaultState* ft = nullptr);
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Registers AM tags, starts threads, and schedules this rank's source
  /// tasks.
  void start();

  int rank() const { return rank_; }
  /// Longest weighted dependency chain ending on this node.
  const CriticalPath& crit() const { return crit_; }

  /// Timeline-probe introspection: tasks released but not yet dispatched
  /// and announced flows still awaiting arrival.
  std::size_t ready_tasks() const { return ready_.size(); }
  std::size_t pending_fetches() const { return pending_index_.size(); }

  /// Worker rows built so far: a row is built when no built worker is
  /// idle and a task is ready, and the idle list is LIFO, so this is the
  /// node's peak number of tasks held by workers at once.
  int workers_started() const {
    return workers_ ? static_cast<int>(workers_->size()) : 0;
  }
  /// Aggregate busy time over worker threads (for utilization reports).
  des::Duration worker_busy_time() const;
  /// Latest charged-busy horizon across this node's worker/comm threads.
  /// The engine stops at the last *event*; a final task's charged compute
  /// elapses past it, so the true makespan is the max of both.
  des::Time threads_free_at() const;

  // --- fail-stop recovery hooks (no-ops unless ft was passed) -----------
  /// Ground-truth crash notification: this node stops doing work.  The
  /// fabric already cancelled the DES events the node owns; this guards
  /// the work items (workers, comm loop) that owner 0 holds.
  void mark_crashed();
  bool crashed() const { return dead_; }
  /// Drops protocol state wedged on a confirmed-dead peer: pending
  /// fetches whose serving rank died, and queued activations to it.
  void purge_peer(int dead_rank);
  /// Seeds a re-homed zero-input task on this node.
  void inject_source(const TaskKey& key);
  /// Re-serves a produced flow from the cache: local consumers get the
  /// data directly; a remote `dst` gets a fresh single-destination
  /// ACTIVATE.  Returns false when the flow is not cached here.  Only an
  /// alive node is asked.
  bool reannounce(const FlowKey& flow, int dst);
  /// True when `input` of `task` has not been delivered on this node.
  bool input_unfilled(const TaskKey& task, int input) const;
  /// Coordinator bookkeeping: a previously Ready/Done task homed here was
  /// rearmed and will run again.
  void note_reexecuted() { ++stats_.tasks_reexecuted; }

 private:
  /// A task from its first input delivery (or source release) until its
  /// body completes: it gathers inputs, then waits in the ready queue,
  /// then runs, all in one slot.
  struct TaskState {
    TaskKey key;
    int remaining = 0;
    bool has_sums = false;  ///< in_sums holds a delivery's chain
    CopyList inputs;
    // Critical-path bookkeeping: the chain sums of the latest delivery so
    // far (the trigger input — the one whose release lets the task run).
    PathSums in_sums;
    des::Time release_g = 0;  ///< latest input release
  };
  /// Heap entry of the ready queue; the task itself waits in its slot.
  struct ReadyRef {
    double priority = 0.0;
    std::uint64_t seq = 0;  ///< FIFO among equal priorities
    std::uint32_t slot = 0;
    bool operator<(const ReadyRef& o) const {
      if (priority != o.priority) return priority < o.priority;
      return seq > o.seq;
    }
  };
  /// Data held for remote consumers (origin side of puts).  Its address
  /// is the put's l_cb_data, so it stays in its slot until its last put
  /// completed locally.
  struct OutgoingData {
    NodeRuntime* owner = nullptr;
    FlowKey flow;
    std::uint32_t slot = 0;
    DataCopyPtr copy;
    int expected_gets = 0;
    int gets_served = 0;
    int puts_inflight = 0;
  };
  /// A flow announced by ACTIVATE, awaiting fetch + arrival.
  struct PendingFetch {
    wire::ActivationRecord record;
    std::vector<Dep> local_deps;
    DataCopyPtr buffer;
    double fetch_priority = 0.0;
    bool requested = false;
    des::Time reached_ts = 0;    ///< when the handler reached this record
    des::Time activated_ts = 0;  ///< when the ACTIVATE was processed here
    des::Time requested_ts = 0;  ///< when GET DATA left
  };
  struct FetchOrder {
    double priority;
    std::uint64_t seq;
    FlowKey flow;
    bool operator<(const FetchOrder& o) const {
      if (priority != o.priority) return priority < o.priority;
      return seq > o.seq;
    }
  };

  /// One worker thread: a row of the node's worker table.  A row is what
  /// des::charge_current() charges while its task runs, so it is also the
  /// calling thread mmpi tells apart and the `worker-R.W` trace track.
  /// It adds to the occupancy rule only the task it holds: the one it
  /// runs, or, while still inside its item, the next one it picked up
  /// (dispatched when the item ends).
  struct Worker : des::SimThread {
    Worker(const Namer& namer, std::uint32_t row)
        : SimThread(namer), index(row) {}
    std::uint32_t slot = kNoTask;  ///< task slot to run next
    std::uint32_t index;          ///< row number, in build order
  };
  static constexpr std::uint32_t kNoTask = 0xFFFF'FFFFu;

  // --- scheduling -----------------------------------------------------
  /// Queues the task in `slot`, whose inputs have all arrived.
  void task_ready(std::uint32_t slot);
  /// Readies a zero-input task released at `rel_g`.
  void source_ready(const TaskKey& key, des::Time rel_g);
  void release_task(std::uint32_t slot);
  void try_dispatch();
  /// Schedules `w`'s task once `w` is free, after the scheduler cost.
  void dispatch(Worker& w);
  void run_worker(Worker& w);
  void run_task(Worker& w, std::uint32_t slot);
  void task_completed(const TaskKey& key, const CopyList& outputs,
                      const PathSums& chain);
  void deliver_local(const Dep& dep, const DataCopyPtr& copy,
                     const PathSums& prod, bool remote, des::Time release_g);
  /// Dense id of a task, the key of the waiting-task index.
  std::uint32_t task_id(const TaskKey& t) const {
    return static_cast<std::uint32_t>(def_.task_id(t));
  }
  /// The trace track of a worker row: `worker-R.W`, W counting down from
  /// the last configured worker in build order.
  std::string track_name(const des::ChargeTarget& t) const override;

  /// Effective owner rank: the lineage home under fault tolerance, the
  /// owner-computes rank otherwise.
  int owner_rank(const TaskKey& t) const {
    return ft_ != nullptr ? ft_->lineage.home(t) : def_.rank_of(t);
  }

  // --- communication ----------------------------------------------------
  void publish_remote(const FlowKey& flow, const DataCopyPtr& copy,
                      double priority, des::Time root_ts,
                      const PathSums& path,
                      const std::vector<std::int32_t>& destinations);
  void emit_activation(int dst, wire::ActivationRecord&& rec);
  void send_activate_am(int dst, const wire::ActivationRecord* records,
                        std::size_t count);
  /// Origin-side put completion (the put's l_cb; `cb_data` is the
  /// OutgoingData entry, null for a cache-only serve).
  static void on_put_local(ce::CommEngine&, const ce::MemReg&,
                           std::ptrdiff_t, const ce::MemReg&, std::ptrdiff_t,
                           std::size_t, int, void* cb_data);
  void on_activate(const void* msg, std::size_t size, int src);
  void on_getdata(const void* msg, std::size_t size, int src);
  void on_data_arrived(const void* msg, std::size_t size, int src);
  bool issue_fetches();
  bool flush_activations();
  bool comm_body();
  void wake_comm();

  // --- tracing / stage instrumentation ----------------------------------
  /// "Now" including CPU time charged so far by the current work item.
  /// Charges don't advance sim time, so this is the stamp that sequences
  /// sub-steps within one callback correctly.
  des::Time charged_now() const;
  /// Fresh causal identity for one message leg of `flow`: the trace id
  /// names the flow (stable across hops), the span id this leg.
  wire::TraceCtx new_ctx(const FlowKey& flow);
  /// Records the telescoping stage samples for one delivered record.
  /// Consecutive stages share endpoints, so the seven e2e stages sum
  /// exactly to `end - rec.root_ts` — the same quantity LatencyStats::e2e
  /// records for this flow.
  void record_stages(const wire::ActivationRecord& rec, des::Time reached,
                     des::Time activated, des::Time requested, des::Time put,
                     des::Time end);

  des::Engine& eng_;
  int rank_;
  ce::CommEngine& comm_;
  TaskGraphDef& def_;
  const RuntimeConfig& cfg_;
  NodeStats& stats_;
  CriticalPath crit_;

  // Scheduler state.  Task states and pending fetches live in slabs found
  // through flat indexes (neither is ever iterated in an order that
  // reaches the simulation); the index holds a task, by dense id, until
  // its inputs are complete, the ready heap then holds small entries
  // naming its slot.
  FlatIndex<std::uint32_t, DenseIdHash> task_index_;
  des::Slab<TaskState> task_states_;
  std::priority_queue<ReadyRef> ready_;
  /// Worker rows, built on demand up to cfg_.workers; a deque keeps each
  /// row's address, which is its identity as a charge target.  The deque
  /// itself is built with the first row, since an empty one already
  /// allocates.
  std::optional<std::deque<Worker>> workers_;
  std::vector<std::uint32_t> idle_workers_;  ///< row numbers, LIFO
  CopyList outputs_;  ///< what the running task body publishes
  std::uint64_t ready_seq_ = 0;

  // Communication state.
  FlatIndex<FlowKey, FlowKeyHash> outgoing_index_;
  des::Slab<OutgoingData> outgoing_;
  FlatIndex<FlowKey, FlowKeyHash> pending_index_;
  des::Slab<PendingFetch> pending_;
  std::priority_queue<FetchOrder> fetch_queue_;
  // The iteration order of this map is the ACTIVATE send order, so it
  // stays a std::unordered_map; the pool resource recycles its nodes and
  // `record_vectors_` the vectors they hold.
  std::pmr::unsynchronized_pool_resource activation_nodes_;
  std::pmr::unordered_map<int, std::vector<wire::ActivationRecord>>
      outgoing_activations_{&activation_nodes_};
  VecPool<wire::ActivationRecord> record_vectors_;
  VecPool<std::int32_t> subtrees_;
  std::uint64_t fetch_seq_ = 0;
  int inflight_fetches_ = 0;
  std::uint64_t span_seq_ = 0;  ///< per-node trace span allocator

  des::PollThread comm_thread_;

  // Scratch to avoid per-call allocation in hot paths.
  std::vector<Dep> deps_scratch_;
  std::vector<std::int32_t> remote_scratch_;
  std::vector<wire::ActivationRecord> unpacked_;
  std::vector<std::byte> activate_buf_;

  // --- fault tolerance ---------------------------------------------------
  FaultState* ft_ = nullptr;  ///< null = tolerance off (exact legacy paths)
  bool dead_ = false;         ///< this node fail-stopped
  /// Every flow a task homed here produced for a consumer homed on
  /// another node, kept so lost data can be re-served (GET DATA after
  /// retirement, recovery re-announce).  Multicast forwarders keep
  /// nothing: both readers only ever ask the producer's home.  An
  /// append-only log of fixed-size records in slab chunks: appending
  /// adds no node, no hash entry and no DataCopy reference (the copy is
  /// held by value, so a Model-mode record owns nothing on the heap).
  /// Both readers run only during recovery, so the index to a flow's
  /// newest record is built at the first lookup.
  struct ProducedRecord {
    FlowKey flow;
    DataCopy copy;
    PathSums path;
    double priority = 0.0;
  };
  /// The newest record of `flow`, or null when this node never published
  /// it.  Indexes the records appended since the previous lookup first.
  const ProducedRecord* find_produced(const FlowKey& flow);
  des::Slab<ProducedRecord> produced_;  ///< slot n = n-th record
  FlatIndex<FlowKey, FlowKeyHash> produced_index_;
  std::uint32_t produced_indexed_ = 0;  ///< records produced_index_ covers
};

}  // namespace amt
