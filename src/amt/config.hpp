// Runtime configuration and instrumentation counters.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "des/time.hpp"
#include "obs/stats.hpp"
#include "amt/task_key.hpp"

namespace amt {

/// Fail-stop fault tolerance (lineage-based re-execution).  When enabled,
/// the runtime tracks every task's lineage (phase, execution epoch, home
/// rank) in a coordinator-side tracker; a confirmed node death re-homes
/// the dead node's unfinished tasks onto survivors, re-announces lost
/// inputs from surviving producers' produced-data caches, and re-executes
/// the producing sub-lineage when the producer itself died after
/// completing.  Off by default: the fault-free fast path is bit-identical
/// to the non-tolerant runtime.
struct FaultToleranceConfig {
  bool enabled = false;
  /// Re-execution cap per task; exceeding it fails closed with
  /// RunStatus::ErrLineageExhausted instead of looping forever.
  int max_epochs = 8;
  /// Tolerant-run watchdog: if simulated time advances this far with no
  /// new task completion, the run fails closed with ErrDeadlock.  Needed
  /// because failure-detector heartbeat timers keep the event queue
  /// non-empty forever — the engine can never "drain to prove" deadlock.
  des::Duration stall_timeout = 2 * des::kSecond;
};

/// Terminal outcome of a tolerant run.  The default (non-tolerant) path
/// still asserts on incomplete execution; the tolerant path never aborts —
/// it reports one of these and returns.
enum class RunStatus : int {
  Ok = 0,
  ErrNoSurvivors,       ///< every node crashed; nothing left to run on
  ErrLineageExhausted,  ///< a task died more than max_epochs times
  ErrTileLost,          ///< data irrecoverable (no cache copy anywhere)
  ErrDeadlock,          ///< engine drained before all tasks completed
};

inline const char* run_status_name(RunStatus s) {
  switch (s) {
    case RunStatus::Ok: return "ok";
    case RunStatus::ErrNoSurvivors: return "err_no_survivors";
    case RunStatus::ErrLineageExhausted: return "err_lineage_exhausted";
    case RunStatus::ErrTileLost: return "err_tile_lost";
    case RunStatus::ErrDeadlock: return "err_deadlock";
  }
  return "unknown";
}

struct RuntimeConfig {
  /// Worker threads per node.  The paper's setup (§6.1.2): 128 cores,
  /// minus one for the communication thread, minus one more for the LCI
  /// progress thread.
  int workers = 4;

  /// §6.4.3 communication multithreading: workers send ACTIVATE messages
  /// directly instead of funneling them through the communication thread.
  /// Disables ACTIVATE aggregation.
  bool mt_activate = false;

  /// Maximum bytes of activation records aggregated into one ACTIVATE AM.
  std::size_t am_batch_bytes = 3 * 1024;

  /// Maximum outstanding GET DATA requests per node; further fetches wait
  /// in a priority queue (deferred, §4.1/§4.3).
  int max_inflight_fetches = 32;

  /// Remote destinations per multicast-tree node; a flow with more
  /// destinations is forwarded through a tree rooted at the producer.
  int multicast_arity = 2;

  // --- modeled CPU costs --------------------------------------------------
  // Calibrated to PaRSEC-scale runtime work.  The ACTIVATE callback is the
  // expensive one (§4.3): it unpacks each aggregated activation, iterates
  // over all local descendants of the task, and decides which data to
  // request — tens of microseconds of comm-thread time per record.  This
  // is precisely the work that, on the MPI backend, blocks all message
  // matching while it runs.
  des::Duration task_epilogue_cost = 8 * des::kMicrosecond;
  des::Duration activate_pack_cost = 4 * des::kMicrosecond;
  /// ACTIVATE processing = fixed part + a per-local-descendant part (the
  /// callback iterates over all local descendants of the completed task).
  des::Duration activate_unpack_cost = 25 * des::kMicrosecond;
  des::Duration activate_per_dep_cost = 2 * des::kMicrosecond;
  des::Duration getdata_handle_cost = 15 * des::kMicrosecond;
  /// Data-arrival processing = fixed part + per released dependency.
  des::Duration data_release_cost = 15 * des::kMicrosecond;
  des::Duration release_per_dep_cost = 3 * des::kMicrosecond;
  des::Duration scheduler_cost = 1 * des::kMicrosecond;
  des::Duration comm_loop_cost = 50;  ///< per comm-thread poll iteration

  /// Fail-stop crash recovery (see FaultToleranceConfig).
  FaultToleranceConfig ft;

  /// Cost profile for microbenchmark-style task classes whose successor
  /// functions are trivial (one consumer, no tile bookkeeping) — the
  /// paper's §6.2/§6.3 ping-pong benchmarks.  The defaults above model a
  /// complex application (HiCMA: descendant sets of hundreds, low-rank
  /// tile bookkeeping per record).
  static RuntimeConfig light_costs() {
    RuntimeConfig cfg;
    cfg.task_epilogue_cost = 1000;
    cfg.activate_pack_cost = 300;
    cfg.activate_unpack_cost = 1200;
    cfg.activate_per_dep_cost = 200;
    cfg.getdata_handle_cost = 1200;
    cfg.data_release_cost = 1200;
    cfg.release_per_dep_cost = 150;
    cfg.scheduler_cost = 400;
    return cfg;
  }
};

/// End-to-end latency statistics (paper Figs. 4b/5b): measured from the
/// ACTIVATE send until the data arrives, per flow; `e2e` is from the
/// multicast root, `hop` from the direct predecessor in the tree.
/// Histogram-backed, so the benches report percentiles (p50/p90/p99), not
/// just means; merging across nodes merges the underlying buckets.
struct LatencyStats {
  obs::Histogram hop;
  obs::Histogram e2e;

  void add(double hop_ns, double e2e_ns) {
    hop.add(hop_ns);
    e2e.add(e2e_ns);
  }
  void merge(const LatencyStats& o) {
    hop.merge(o.hop);
    e2e.merge(o.e2e);
  }
  std::uint64_t count() const { return e2e.count(); }
  double hop_mean_ns() const { return hop.mean(); }
  double e2e_mean_ns() const { return e2e.mean(); }
  double e2e_max_ns() const { return e2e.max(); }
  double e2e_p50_ns() const { return e2e.p50(); }
  double e2e_p99_ns() const { return e2e.p99(); }
};

/// Stages of a remote flow's delivery path, in causal order.  The first
/// kE2eStages telescope: consecutive timestamps along one delivery chain,
/// so their per-flow values sum *exactly* to the `LatencyStats::e2e`
/// sample for that flow (and, since every arrival contributes one sample
/// to every stage, the stage means sum to the e2e mean).  `Release` and
/// `TaskStart` happen after the latency endpoint and are reported
/// separately as runtime-overhead stages.
enum class Stage : int {
  Upstream = 0,     ///< multicast-root publish -> this hop queues the record
  Queue,            ///< queued -> packed into an ACTIVATE AM (aggregation
                    ///< wait; the stage mt_activate removes)
  ActivateWire,     ///< ACTIVATE injected -> remote handler reaches record
  ActivateHandle,   ///< record unpack + successor iteration CPU time
  FetchWait,        ///< activated -> GET DATA sent (inflight-cap queueing)
  GetdataWire,      ///< GET DATA sent -> holder issues the put
  Transfer,         ///< put issued -> data-arrival callback on requester
  Release,          ///< dependency-release processing (post-arrival)
  TaskStart,        ///< last input released -> task body starts
  kCount
};

inline constexpr int kNumStages = static_cast<int>(Stage::kCount);
inline constexpr int kE2eStages = static_cast<int>(Stage::Transfer) + 1;

inline constexpr std::array<const char*, kNumStages> kStageNames = {
    "upstream",      "queue",        "activate_wire", "activate_handle",
    "fetch_wait",    "getdata_wire", "transfer",      "release",
    "task_start"};

/// One histogram per lifecycle stage (samples in ns, like LatencyStats).
struct StageLats {
  std::array<obs::Histogram, kNumStages> h;

  obs::Histogram& operator[](Stage s) {
    return h[static_cast<std::size_t>(s)];
  }
  const obs::Histogram& operator[](Stage s) const {
    return h[static_cast<std::size_t>(s)];
  }
  void merge(const StageLats& o) {
    for (int s = 0; s < kNumStages; ++s) {
      h[static_cast<std::size_t>(s)].merge(o.h[static_cast<std::size_t>(s)]);
    }
  }
  /// Sum of the e2e-stage means; equals the LatencyStats e2e mean when all
  /// stage histograms carry the same arrivals.
  double e2e_stage_mean_sum_ns() const {
    double sum = 0;
    for (int s = 0; s < kE2eStages; ++s) {
      sum += h[static_cast<std::size_t>(s)].mean();
    }
    return sum;
  }
};

/// Running weighted-path sums along one dependency chain.  Shipped inside
/// ActivationRecords so the longest path is computed streaming, O(1) per
/// task, instead of materializing the task DAG: the invariant is
/// total() == the chain head's finish time, so the chain ending at the
/// last-finishing task IS the critical path.
struct PathSums {
  des::Duration compute = 0;   ///< task-body time on the path
  des::Duration comm = 0;      ///< remote-delivery gaps on the path
  des::Duration overhead = 0;  ///< runtime time (scheduling, local waits)
  std::uint32_t tasks = 0;     ///< chain length, for reporting
  std::uint32_t pad_ = 0;      ///< keep wire bytes deterministic

  des::Duration total() const { return compute + comm + overhead; }
};
static_assert(sizeof(PathSums) == 32, "PathSums must pack without padding");

/// The longest weighted path observed so far: the chain ending at the
/// latest-finishing task.  Strictly-greater updates keep the first
/// maximum, so merging per-node results in rank order is deterministic.
struct CriticalPath {
  bool seen = false;
  des::Time finish_g = 0;  ///< finish time of the last task
  PathSums sums;
  TaskKey last;            ///< the chain's final task

  void observe(des::Time f, const PathSums& s, const TaskKey& k) {
    if (!seen || f > finish_g) {
      seen = true;
      finish_g = f;
      sums = s;
      last = k;
    }
  }
  void merge(const CriticalPath& o) {
    if (o.seen) observe(o.finish_g, o.sums, o.last);
  }
};

/// The runtime's counters and histograms: one record per run, which every
/// node records into.
struct NodeStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t activations_sent = 0;      ///< activation records
  std::uint64_t activate_ams = 0;          ///< AM messages (post-aggregation)
  std::uint64_t getdata_sent = 0;
  std::uint64_t getdata_deferred = 0;      ///< waited in the fetch queue
  std::uint64_t data_arrivals = 0;
  std::uint64_t forwards = 0;              ///< multicast-tree forwards
  // Fault-tolerance counters (all zero on fault-free runs).
  std::uint64_t tasks_reexecuted = 0;      ///< lineage re-arms applied here
  std::uint64_t dup_completions_suppressed = 0;
  std::uint64_t dup_inputs_dropped = 0;    ///< re-delivered inputs ignored
  std::uint64_t stale_activations = 0;     ///< duplicate/stale records dropped
  std::uint64_t fetches_abandoned = 0;     ///< pending fetches on a dead peer
  std::uint64_t reannounces = 0;           ///< flows re-served from the cache
  std::uint64_t local_reannounces = 0;     ///< ... to consumers on the holder
  std::uint64_t cache_serves = 0;          ///< GET DATAs served from the cache
  std::uint64_t produced_records = 0;      ///< records appended to the cache
  LatencyStats latency;
  /// Full lifecycle-stage decomposition (tentpole of the tracing layer).
  StageLats stages;
  /// Longest weighted dependency chain; Runtime::aggregate_stats fills it
  /// in from the per-node paths.
  CriticalPath crit;
};

/// Copies the latency and lifecycle-stage histograms of `s` into `rec`
/// under "amt.lat.*", so drivers and benches can export them alongside
/// the CE/fabric metrics (AMTLCE_METRICS JSON dump).
inline void export_latency_metrics(const NodeStats& s, obs::Recorder& rec) {
  rec.histogram("amt.lat.hop_ns").merge(s.latency.hop);
  rec.histogram("amt.lat.e2e_ns").merge(s.latency.e2e);
  for (int i = 0; i < kNumStages; ++i) {
    rec.histogram(std::string("amt.lat.stage.") + kStageNames[i] + "_ns")
        .merge(s.stages.h[static_cast<std::size_t>(i)]);
  }
}

}  // namespace amt
