// Fail-stop recovery: lineage-tracker unit semantics (deterministic
// re-homing, epoch bumps, exact done-counting) and ground-truth crash
// recovery through the full runtime — a node dies mid-graph, its
// unfinished lineage re-homes onto survivors, lost inputs are re-served
// or re-produced, and the numeric answer still comes out right.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "amt/lineage.hpp"
#include "amt/runtime.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/time.hpp"
#include "net/fabric.hpp"
#include "test_graphs.hpp"

namespace {

using amt::FaultState;
using amt::LineageTracker;
using amt::RunStatus;
using amt::Runtime;
using amt::RuntimeConfig;
using amt::TaskKey;
using amt::TaskPhase;
using amt_test::ChainGraph;
using amt_test::WavefrontGraph;
using ce::BackendKind;

// ---------------------------------------------------------------------------
// LineageTracker units

TEST(Lineage, ReownerIsDeterministicAndCoversSurvivors) {
  const std::vector<int> survivors{0, 2, 3, 5};
  std::set<int> hit;
  for (int i = 0; i < 64; ++i) {
    const TaskKey t{1, i, i / 3, 0};
    const int a = LineageTracker::reowner(t, survivors);
    const int b = LineageTracker::reowner(t, survivors);
    EXPECT_EQ(a, b);  // same key, same survivor list => same home
    EXPECT_TRUE(std::count(survivors.begin(), survivors.end(), a));
    hit.insert(a);
  }
  // The hash rule spreads work: 64 keys over 4 survivors hit them all.
  EXPECT_EQ(hit.size(), survivors.size());
}

TEST(Lineage, RearmUncountsDoneAndBumpsEpoch) {
  ChainGraph graph(4, 2);
  LineageTracker lin(graph);
  const TaskKey t{0, 1};
  EXPECT_EQ(lin.phase(t), TaskPhase::Pending);
  EXPECT_EQ(lin.home(t), 1);  // owner-computes default (t.i % nodes)

  lin.mark_ready(t);
  lin.mark_done(t);
  lin.mark_done(t);  // idempotent
  EXPECT_EQ(lin.done_count(), 1u);
  EXPECT_EQ(lin.epoch(t), 0);

  const std::vector<int> survivors{0};
  EXPECT_EQ(lin.rearm(t, survivors), 1);
  EXPECT_EQ(lin.done_count(), 0u);  // the completion predicate stays exact
  EXPECT_EQ(lin.phase(t), TaskPhase::Pending);
  EXPECT_EQ(lin.home(t), 0);  // re-homed off the corpse

  lin.mark_done(t);
  EXPECT_EQ(lin.done_count(), 1u);
  EXPECT_EQ(lin.rearm(t, survivors), 2);  // epoch counts re-executions
}

TEST(Lineage, RearmIsSparse) {
  ChainGraph graph(6, 3);
  LineageTracker lin(graph);
  const TaskKey a{0, 1}, b{0, 4};
  lin.mark_done(a);
  lin.mark_done(b);
  EXPECT_FALSE(lin.rehomed());

  const std::vector<int> survivors{0, 2};
  EXPECT_EQ(lin.rearm(a, survivors), 1);
  EXPECT_TRUE(lin.rehomed());
  EXPECT_EQ(lin.done_count(), 1u);  // only `a` was un-counted
  // A task that was never re-armed keeps its owner-computes home and
  // epoch 0, and stays Done.
  EXPECT_EQ(lin.home(b), graph.rank_of(b));
  EXPECT_EQ(lin.epoch(b), 0);
  EXPECT_TRUE(lin.is_done(b));

  lin.mark_done(a);
  EXPECT_EQ(lin.done_count(), 2u);
  EXPECT_EQ(lin.rearm(a, survivors), 2);
  EXPECT_EQ(lin.done_count(), 1u);
  EXPECT_EQ(lin.rearm(a, survivors), 3);  // re-arming a Pending task
  EXPECT_EQ(lin.done_count(), 1u);
}

// The default TaskGraphDef::task_id numbers tasks in first-use order:
// distinct, inside [0, total_tasks()), and stable across calls.
TEST(TaskId, DefaultIsADenseBijection) {
  ChainGraph chain(9, 3);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t id = chain.task_id(TaskKey{0, i});
    EXPECT_LT(id, chain.total_tasks());
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), chain.total_tasks());
  EXPECT_EQ(chain.task_id(TaskKey{0, 4}), chain.task_id(TaskKey{0, 4}));

  WavefrontGraph wave(5, 3);
  ids.clear();
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const std::uint64_t id = wave.task_id(TaskKey{0, i, j});
      EXPECT_LT(id, wave.total_tasks());
      ids.insert(id);
    }
  }
  EXPECT_EQ(ids.size(), wave.total_tasks());
}

/// A graph whose task_id() breaks the contract: every id equals
/// total_tasks().
class OutOfRangeIdGraph final : public amt::TaskGraphDef {
 public:
  int num_inputs(const TaskKey&) const override { return 0; }
  int num_outputs(const TaskKey&) const override { return 0; }
  int rank_of(const TaskKey&) const override { return 0; }
  void successors(const TaskKey&, int, std::vector<amt::Dep>&) const override {}
  des::Duration execute(const TaskKey&, amt::RunContext&) override {
    return 0;
  }
  void initial_tasks(int, std::vector<TaskKey>&) const override {}
  std::uint64_t total_tasks() const override { return 4; }
  std::uint64_t task_id(const TaskKey&) const override {
    return total_tasks();
  }
};

TEST(LineageDeathTest, OutOfRangeTaskIdAborts) {
  OutOfRangeIdGraph graph;
  LineageTracker lin(graph);
  EXPECT_DEATH(lin.mark_done(TaskKey{}), "task_id");
}

TEST(Lineage, FaultStateFirstErrorWinsAndSurvivorsAscend) {
  ChainGraph graph(4, 4);
  FaultState ft(graph, {});
  ft.node_dead.assign(4, 0);
  ft.node_dead[2] = 1;
  EXPECT_FALSE(ft.alive(2));
  EXPECT_TRUE(ft.alive(3));
  EXPECT_EQ(ft.survivors(), (std::vector<int>{0, 1, 3}));

  ft.fail(RunStatus::ErrTileLost);
  ft.fail(RunStatus::ErrDeadlock);
  EXPECT_EQ(ft.status, RunStatus::ErrTileLost);
}

// ---------------------------------------------------------------------------
// Ground-truth crash recovery through the full runtime (no failure
// detector: the fabric crash handler drives recovery with zero detection
// latency, which keeps these tests small and fast).

struct CrashWorld {
  des::Engine eng;
  net::Fabric fab;
  ce::CommWorld comm;
  CrashWorld(int nodes, BackendKind kind, const net::FaultConfig& faults)
      : fab(eng, nodes,
            [&faults]() {
              net::FabricConfig fc;
              fc.faults = faults;
              return fc;
            }()),
        comm(fab, kind) {}
};

RuntimeConfig tolerant_cfg() {
  RuntimeConfig cfg;
  cfg.ft.enabled = true;
  return cfg;
}

class RecoveryBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(RecoveryBackends, ToleranceOffMatchesLegacyRun) {
  // ft off must stay byte-identical to the pre-recovery runtime; ft on
  // with no crashes must produce the same answer and task count.
  des::Duration legacy = 0;
  {
    CrashWorld w(4, GetParam(), {});
    WavefrontGraph graph(8, 4);
    Runtime rt(w.eng, w.fab, w.comm, graph);
    legacy = rt.run();
    EXPECT_EQ(graph.corner(), graph.expected_corner());
  }
  CrashWorld w(4, GetParam(), {});
  WavefrontGraph graph(8, 4);
  Runtime rt(w.eng, w.fab, w.comm, graph, tolerant_cfg());
  const des::Duration tol = rt.run();
  EXPECT_EQ(rt.run_status(), RunStatus::Ok);
  EXPECT_EQ(tol, legacy);  // no crashes: identical schedule
  EXPECT_EQ(graph.corner(), graph.expected_corner());
  const auto agg = rt.aggregate_stats();
  EXPECT_EQ(agg.tasks_reexecuted, 0u);
  EXPECT_EQ(agg.reannounces, 0u);
  EXPECT_EQ(agg.dup_inputs_dropped, 0u);
}

TEST_P(RecoveryBackends, WavefrontSurvivesMidRunCrash) {
  // Calibrate crashes against the fault-free makespan so they land with
  // work done on the victim and work still pending.  A single instant
  // can catch the victim's wavefront diagonal idle (nothing to
  // re-execute), so sweep several: every run must recover exactly, and
  // across the sweep lost work must provably have re-executed.
  des::Duration clean = 0;
  {
    CrashWorld w(4, GetParam(), {});
    WavefrontGraph graph(8, 4);
    Runtime rt(w.eng, w.fab, w.comm, graph, tolerant_cfg());
    clean = rt.run();
    ASSERT_EQ(rt.run_status(), RunStatus::Ok);
  }

  std::uint64_t reexecuted = 0;
  std::uint64_t reannounced = 0;
  for (const int eighth : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(::testing::Message() << "crash at " << eighth << "/8");
    net::FaultConfig faults;
    faults.crashes.push_back(net::CrashEvent{1, clean * eighth / 8, 0});
    CrashWorld w(4, GetParam(), faults);
    WavefrontGraph graph(8, 4);
    Runtime rt(w.eng, w.fab, w.comm, graph, tolerant_cfg());
    rt.run();
    EXPECT_EQ(rt.run_status(), RunStatus::Ok);
    // Every task completed exactly once in lineage terms, and the
    // numeric wavefront recursion still checks out.
    EXPECT_EQ(rt.fault_state()->lineage.done_count(), graph.total_tasks());
    EXPECT_EQ(graph.corner(), graph.expected_corner());
    // Re-executions only add raw task runs, never lose them.
    EXPECT_GE(rt.total_tasks_executed(), graph.total_tasks());
    // The corpse did not keep working.
    EXPECT_TRUE(rt.node(1).crashed());
    const auto agg = rt.aggregate_stats();
    reexecuted += agg.tasks_reexecuted;
    reannounced += agg.reannounces;
  }
  // Somewhere in the sweep the victim held finished-or-running work.
  EXPECT_GT(reexecuted, 0u);
  EXPECT_GT(reannounced, 0u);
}

TEST_P(RecoveryBackends, RecoveryIsDeterministicPerSchedule) {
  auto once = [&](des::Duration crash_at) {
    net::FaultConfig faults;
    faults.crashes.push_back(net::CrashEvent{2, crash_at, 0});
    CrashWorld w(4, GetParam(), faults);
    WavefrontGraph graph(8, 4);
    Runtime rt(w.eng, w.fab, w.comm, graph, tolerant_cfg());
    const des::Duration makespan = rt.run();
    EXPECT_EQ(rt.run_status(), RunStatus::Ok);
    EXPECT_EQ(graph.corner(), graph.expected_corner());
    const auto agg = rt.aggregate_stats();
    return std::make_tuple(makespan, agg.tasks_reexecuted, agg.reannounces,
                           rt.total_tasks_executed());
  };
  const auto a = once(40 * des::kMicrosecond);
  const auto b = once(40 * des::kMicrosecond);
  EXPECT_EQ(a, b);  // same crash schedule => bit-identical recovery
}

TEST_P(RecoveryBackends, ChainLosesEveryThirdNodeAndStillCounts) {
  // A 30-task chain over 3 nodes where the middle node dies early: every
  // in-flight hand-off through rank 1 must re-home and the final counter
  // must still see all 29 increments.
  des::Duration clean = 0;
  {
    CrashWorld w(3, GetParam(), {});
    ChainGraph graph(30, 3);
    Runtime rt(w.eng, w.fab, w.comm, graph, tolerant_cfg());
    clean = rt.run();
  }
  net::FaultConfig faults;
  faults.crashes.push_back(net::CrashEvent{1, clean / 3, 0});
  CrashWorld w(3, GetParam(), faults);
  ChainGraph graph(30, 3);
  Runtime rt(w.eng, w.fab, w.comm, graph, tolerant_cfg());
  rt.run();
  EXPECT_EQ(rt.run_status(), RunStatus::Ok);
  EXPECT_EQ(rt.fault_state()->lineage.done_count(), 30u);
  EXPECT_EQ(graph.final_value(), 29);
}

TEST_P(RecoveryBackends, AllPeersDeadFailsClosed) {
  // Kill every node but none survive to recover: the run must end with
  // ErrNoSurvivors, not an abort or a hang.
  net::FaultConfig faults;
  for (int n = 0; n < 2; ++n) {
    faults.crashes.push_back(
        net::CrashEvent{n, 10 * des::kMicrosecond, 0});
  }
  CrashWorld w(2, GetParam(), faults);
  WavefrontGraph graph(6, 2);
  Runtime rt(w.eng, w.fab, w.comm, graph, tolerant_cfg());
  rt.run();
  EXPECT_EQ(rt.run_status(), RunStatus::ErrNoSurvivors);
  EXPECT_LT(rt.fault_state()->lineage.done_count(), graph.total_tasks());
}

INSTANTIATE_TEST_SUITE_P(Backends, RecoveryBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& pinfo) {
                           return pinfo.param == BackendKind::Mpi ? "Mpi"
                                                                  : "Lci";
                         });

}  // namespace
