#include "amt/runtime.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "ce/world.hpp"
#include "des/engine.hpp"
#include "mmpi/mpi.hpp"
#include "net/fabric.hpp"
#include "test_graphs.hpp"

namespace {

using amt::Runtime;
using amt::RuntimeConfig;
using amt_test::BroadcastGraph;
using amt_test::ChainGraph;
using amt_test::WavefrontGraph;
using ce::BackendKind;

struct RtWorld {
  des::Engine eng;
  net::Fabric fab;
  ce::CommWorld comm;
  RtWorld(int nodes, BackendKind kind, ce::CeConfig ce_cfg = {})
      : fab(eng, nodes), comm(fab, kind, ce_cfg) {}
};

class RtBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(RtBackends, SingleNodeChainExecutesInOrder) {
  RtWorld w(1, GetParam());
  ChainGraph graph(20, 1);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  rt.run();
  EXPECT_EQ(rt.total_tasks_executed(), 20u);
  EXPECT_EQ(graph.final_value(), 19);  // 19 increments reach the last task
}

TEST_P(RtBackends, CrossNodeChainDeliversData) {
  RtWorld w(4, GetParam());
  ChainGraph graph(21, 4);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  rt.run();
  EXPECT_EQ(rt.total_tasks_executed(), 21u);
  EXPECT_EQ(graph.final_value(), 20);
  const auto agg = rt.aggregate_stats();
  // Every hop crosses nodes: 20 activations, 20 fetches, 20 arrivals.
  EXPECT_EQ(agg.activations_sent, 20u);
  EXPECT_EQ(agg.getdata_sent, 20u);
  EXPECT_EQ(agg.data_arrivals, 20u);
  EXPECT_GT(agg.latency.count(), 0u);
  EXPECT_GT(agg.latency.e2e_mean_ns(), 0.0);
}

TEST_P(RtBackends, BroadcastReachesAllConsumers) {
  RtWorld w(8, GetParam());
  BroadcastGraph graph(/*fanout=*/28, /*nodes=*/8);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  rt.run();
  EXPECT_EQ(rt.total_tasks_executed(), 29u);
  EXPECT_EQ(graph.verified(), 28);
  const auto agg = rt.aggregate_stats();
  // 7 remote ranks with arity 2 => forwarding must have happened.
  EXPECT_GT(agg.forwards, 0u);
}

TEST_P(RtBackends, WavefrontComputesCorrectCorner) {
  RtWorld w(4, GetParam());
  WavefrontGraph graph(8, 4);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  rt.run();
  EXPECT_EQ(rt.total_tasks_executed(), 64u);
  EXPECT_EQ(graph.corner(), graph.expected_corner());
}

TEST_P(RtBackends, MtActivateProducesSameResult) {
  RtWorld w(4, GetParam());
  WavefrontGraph graph(8, 4);
  RuntimeConfig cfg;
  cfg.mt_activate = true;
  Runtime rt(w.eng, w.fab, w.comm, graph, cfg);
  rt.run();
  EXPECT_EQ(graph.corner(), graph.expected_corner());
  const auto agg = rt.aggregate_stats();
  // No aggregation: one AM per activation record.
  EXPECT_EQ(agg.activate_ams, agg.activations_sent);
}

TEST_P(RtBackends, AggregationBatchesActivations) {
  RtWorld w(4, GetParam());
  WavefrontGraph graph(10, 4);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  rt.run();
  const auto agg = rt.aggregate_stats();
  EXPECT_GT(agg.activations_sent, 0u);
  EXPECT_LE(agg.activate_ams, agg.activations_sent);
}

TEST_P(RtBackends, VirtualPayloadGraphCompletes) {
  RtWorld w(4, GetParam());
  ChainGraph graph(30, 4, /*real_data=*/false, /*data_size=*/1 << 20);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  const auto makespan = rt.run();
  EXPECT_EQ(rt.total_tasks_executed(), 30u);
  EXPECT_GT(makespan, 0);
}

TEST_P(RtBackends, FetchCapDefersGetData) {
  RtWorld w(2, GetParam());
  BroadcastGraph graph(/*fanout=*/40, /*nodes=*/2);
  RuntimeConfig cfg;
  cfg.max_inflight_fetches = 1;  // extreme: serialize fetches
  cfg.multicast_arity = 64;      // no forwarding, all direct
  Runtime rt(w.eng, w.fab, w.comm, graph, cfg);
  rt.run();
  EXPECT_EQ(graph.verified(), 40);
}

TEST_P(RtBackends, MakespanScalesDownWithWorkers) {
  auto run_with_workers = [&](int workers) {
    RtWorld w(1, GetParam());
    BroadcastGraph graph(64, 1);
    RuntimeConfig cfg;
    cfg.workers = workers;
    Runtime rt(w.eng, w.fab, w.comm, graph, cfg);
    return rt.run();
  };
  const auto t1 = run_with_workers(1);
  const auto t8 = run_with_workers(8);
  EXPECT_LT(t8, t1);
}

TEST_P(RtBackends, StageHistogramsTelescopeToE2eLatency) {
  RtWorld w(4, GetParam());
  WavefrontGraph graph(8, 4);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  rt.run();
  const auto agg = rt.aggregate_stats();
  ASSERT_GT(agg.latency.count(), 0u);
  // Every delivery contributes one sample to each of the seven e2e stages
  // (zero-valued for the stages a control-only record skips), so stage
  // counts track the e2e count exactly.
  for (int s = 0; s < amt::kE2eStages; ++s) {
    const auto& h = agg.stages.h[static_cast<std::size_t>(s)];
    EXPECT_EQ(h.count(), agg.latency.count()) << amt::kStageNames[s];
    EXPECT_GE(h.min(), 0.0) << amt::kStageNames[s];
  }
  // Telescoping: consecutive stage timestamps share endpoints, so under
  // identity clocks the stage means sum to the e2e mean to fp rounding.
  const double e2e = agg.latency.e2e_mean_ns();
  EXPECT_NEAR(agg.stages.e2e_stage_mean_sum_ns(), e2e, 1e-6 * e2e);
}

TEST_P(RtBackends, MtActivateShrinksTheQueueStage) {
  auto run_cfg = [&](bool mt) {
    RtWorld w(4, GetParam());
    WavefrontGraph graph(10, 4);
    RuntimeConfig cfg;
    cfg.mt_activate = mt;
    Runtime rt(w.eng, w.fab, w.comm, graph, cfg);
    rt.run();
    return rt.aggregate_stats();
  };
  const auto agg = run_cfg(false);
  const auto mt = run_cfg(true);
  const double q_agg = agg.stages[amt::Stage::Queue].mean();
  const double q_mt = mt.stages[amt::Stage::Queue].mean();
  // Aggregation makes records wait for the comm thread's flush; workers
  // sending directly (§6.4.3) all but eliminates that queueing stage.
  EXPECT_GT(q_agg, 0.0);
  EXPECT_LT(q_mt, q_agg * 0.5);
  // And the queue stage is where the aggregation-mode latency hides: its
  // gain carries a major share of the total e2e improvement.  (Downstream
  // stages such as transfer can improve too — earlier sends decongest the
  // wire — so require a share, not strict per-stage dominance.)
  const double e2e_gain = agg.latency.e2e_mean_ns() - mt.latency.e2e_mean_ns();
  EXPECT_GT(e2e_gain, 0.0);
  EXPECT_GE(q_agg - q_mt, 0.25 * e2e_gain);
}

TEST_P(RtBackends, CriticalPathIsConsistentAndDeterministic) {
  auto run_once = [&]() {
    RtWorld w(4, GetParam());
    WavefrontGraph graph(8, 4);
    Runtime rt(w.eng, w.fab, w.comm, graph);
    const des::Duration makespan = rt.run();
    return std::make_pair(rt.aggregate_stats(), makespan);
  };
  const auto [a, span_a] = run_once();
  ASSERT_TRUE(a.crit.seen);
  // Invariant: the chain sums reconstruct the final task's finish time
  // exactly, and the chain fits inside the run.
  EXPECT_EQ(a.crit.sums.total(), a.crit.finish_g);
  EXPECT_LE(a.crit.finish_g, span_a);
  EXPECT_GT(a.crit.sums.tasks, 1u);       // spans multiple tasks
  EXPECT_GT(a.crit.sums.compute, 0);
  EXPECT_GT(a.crit.sums.comm, 0);         // wavefront crosses nodes
  EXPECT_GE(a.crit.sums.overhead, 0);
  // Bit-identical across reruns of the same seed (acceptance criterion).
  const auto [b, span_b] = run_once();
  EXPECT_EQ(span_a, span_b);
  EXPECT_EQ(a.crit.finish_g, b.crit.finish_g);
  EXPECT_EQ(a.crit.sums.compute, b.crit.sums.compute);
  EXPECT_EQ(a.crit.sums.comm, b.crit.sums.comm);
  EXPECT_EQ(a.crit.sums.overhead, b.crit.sums.overhead);
  EXPECT_EQ(a.crit.sums.tasks, b.crit.sums.tasks);
  EXPECT_TRUE(a.crit.last == b.crit.last);
  // Stage histograms are deterministic too: same counts and exact sums.
  for (int s = 0; s < amt::kNumStages; ++s) {
    const auto& ha = a.stages.h[static_cast<std::size_t>(s)];
    const auto& hb = b.stages.h[static_cast<std::size_t>(s)];
    EXPECT_EQ(ha.count(), hb.count()) << amt::kStageNames[s];
    EXPECT_DOUBLE_EQ(ha.sum(), hb.sum()) << amt::kStageNames[s];
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RtBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& tp) {
                           return tp.param == BackendKind::Mpi ? "Mpi"
                                                               : "Lci";
                         });

// Wavefront correctness sweep across sizes, node counts, and backends —
// the full protocol (activate, fetch, put, release, multicast) must
// deliver exactly the sequential result every time.
class RtWavefrontSweep
    : public ::testing::TestWithParam<std::tuple<int, int, BackendKind>> {};

TEST_P(RtWavefrontSweep, MatchesSequentialReference) {
  const auto [n, nodes, kind] = GetParam();
  RtWorld w(nodes, kind);
  WavefrontGraph graph(n, nodes);
  Runtime rt(w.eng, w.fab, w.comm, graph);
  rt.run();
  EXPECT_EQ(rt.total_tasks_executed(),
            static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
  EXPECT_EQ(graph.corner(), graph.expected_corner());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtWavefrontSweep,
    ::testing::Combine(::testing::Values(2, 5, 12),
                       ::testing::Values(1, 2, 3, 7),
                       ::testing::Values(BackendKind::Mpi, BackendKind::Lci)),
    [](const auto& tp) {
      return "n" + std::to_string(std::get<0>(tp.param)) + "_nodes" +
             std::to_string(std::get<1>(tp.param)) +
             (std::get<2>(tp.param) == BackendKind::Mpi ? "_Mpi" : "_Lci");
    });

// Worker threads are built on first use, so a node builds as many as it
// ever holds tasks at once.  On one node a task's successors are
// dispatched while its worker is still charged for the body, so a chain
// holds 2 tasks at its peak and a broadcast of fanout F holds F + 1, up
// to the worker count.  Busy time and the charged-busy horizon are the
// values all workers built up front gave.
TEST(RtWorkers, RunBuildsOnlyItsPeakNumberOfWorkers) {
  struct Case {
    int fanout;  ///< 0 = a 12-task chain
    int workers_started;
    des::Duration busy;
    des::Time free_at;
  };
  for (const Case c : {Case{0, 2, 120000, 61000}, Case{5, 6, 57000, 10500},
                       Case{20, 8, 199500, 29500}}) {
    RtWorld w(1, BackendKind::Mpi);
    ChainGraph chain(12, 1);
    BroadcastGraph broadcast(c.fanout, 1);
    amt::TaskGraphDef& graph =
        c.fanout == 0 ? static_cast<amt::TaskGraphDef&>(chain) : broadcast;
    RuntimeConfig cfg;
    cfg.workers = 8;
    Runtime rt(w.eng, w.fab, w.comm, graph, cfg);
    rt.run();
    const amt::NodeRuntime& node = rt.node(0);
    EXPECT_EQ(node.workers_started(), c.workers_started) << c.fanout;
    EXPECT_EQ(node.worker_busy_time(), c.busy) << c.fanout;
    EXPECT_EQ(node.threads_free_at(), c.free_at) << c.fanout;
  }
}

// Two workers and a broadcast of five on one node.  The root's worker is
// still inside its item when it goes back on the idle list, and the list
// is LIFO, so it picks up its own next task: that task starts when the
// item ends plus the scheduler cost.  Start times, busy time and the
// charged-busy horizon are the values SimThread workers gave.
TEST(RtWorkers, WorkerPicksUpItsOwnNextTaskWhenItsItemEnds) {
  class FanGraph final : public amt::TaskGraphDef {
   public:
    explicit FanGraph(const des::Engine& eng) : eng_(eng) {}
    int num_inputs(const amt::TaskKey& t) const override {
      return t.cls == 0 ? 0 : 1;
    }
    int num_outputs(const amt::TaskKey& t) const override {
      return t.cls == 0 ? 1 : 0;
    }
    int rank_of(const amt::TaskKey&) const override { return 0; }
    void successors(const amt::TaskKey& t, int,
                    std::vector<amt::Dep>& out) const override {
      if (t.cls != 0) return;
      for (int c = 0; c < 5; ++c) out.push_back({amt::TaskKey{1, c}, 0});
    }
    des::Duration execute(const amt::TaskKey& t,
                          amt::RunContext& ctx) override {
      if (t.cls == 0) ctx.set_output(0, amt::DataCopy::virt(8));
      starts.push_back(eng_.now());
      return 2000 + 100 * t.i;
    }
    void initial_tasks(int rank, std::vector<amt::TaskKey>& out) const override {
      if (rank == 0) out.push_back(amt::TaskKey{0, 0});
    }
    std::uint64_t total_tasks() const override { return 6; }
    std::vector<des::Time> starts;

   private:
    const des::Engine& eng_;
  };

  RtWorld w(1, BackendKind::Lci);
  FanGraph graph(w.eng);
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(w.eng, w.fab, w.comm, graph, cfg);
  rt.run();
  const std::vector<des::Time> starts = {1000,  2000,  12000,
                                         13000, 23100, 24200};
  EXPECT_EQ(graph.starts, starts);
  const amt::NodeRuntime& node = rt.node(0);
  EXPECT_EQ(node.workers_started(), 2);
  EXPECT_EQ(node.worker_busy_time(), 67000);
  EXPECT_EQ(node.threads_free_at(), 34600);
}

// With mt_activate (§6.4.3) the workers call send_am themselves, so on
// MPI each worker is a caller of its own and a hand-off between two of
// them pays mmpi's thread-switch cost.  Busy time and the horizon are the
// values SimThread workers gave; without the switch cost both are lower.
TEST(RtWorkers, MtActivateChargesAThreadSwitchBetweenWorkers) {
  const auto run = [](des::Duration switch_cost) {
    des::Engine eng;
    net::Fabric fab(eng, 2);
    mmpi::Config mpi_cfg;
    mpi_cfg.thread_switch_cost = switch_cost;
    ce::CommWorld comm(fab, BackendKind::Mpi, {}, mpi_cfg);
    WavefrontGraph graph(6, 2);
    RuntimeConfig cfg;
    cfg.mt_activate = true;
    Runtime rt(eng, fab, comm, graph, cfg);
    const des::Duration span = rt.run();
    EXPECT_EQ(graph.corner(), graph.expected_corner());
    return std::tuple{span, rt.total_worker_busy(),
                      rt.node(0).threads_free_at()};
  };
  const auto [span, busy, free_at] = run(mmpi::Config{}.thread_switch_cost);
  EXPECT_EQ(span, 3095192);
  EXPECT_EQ(busy, 936900);
  EXPECT_EQ(free_at, 3095192);
  const auto [span0, busy0, free_at0] = run(0);
  EXPECT_LT(busy0, busy);
  EXPECT_LT(span0, span);
}

TEST(RtPriorities, HigherPriorityTasksRunFirstOnSingleWorker) {
  // A broadcast fanout on one node with one worker: consumer execution
  // order must follow priority.  Build a custom graph inline.
  class PrioGraph final : public amt::TaskGraphDef {
   public:
    int num_inputs(const amt::TaskKey& t) const override {
      return t.cls == 0 ? 0 : 1;
    }
    int num_outputs(const amt::TaskKey& t) const override {
      return t.cls == 0 ? 1 : 0;
    }
    int rank_of(const amt::TaskKey&) const override { return 0; }
    void successors(const amt::TaskKey& t, int,
                    std::vector<amt::Dep>& out) const override {
      if (t.cls != 0) return;
      for (int c = 0; c < 6; ++c) out.push_back({amt::TaskKey{1, c}, 0});
    }
    double priority(const amt::TaskKey& t) const override {
      return t.cls == 0 ? 100.0 : static_cast<double>(t.i);
    }
    des::Duration execute(const amt::TaskKey& t,
                          amt::RunContext& ctx) override {
      if (t.cls == 0) {
        ctx.set_output(0, amt::DataCopy::virt(8));
      } else {
        order.push_back(t.i);
      }
      return 100;
    }
    void initial_tasks(int rank, std::vector<amt::TaskKey>& out) const override {
      if (rank == 0) out.push_back(amt::TaskKey{0, 0});
    }
    std::uint64_t total_tasks() const override { return 7; }
    std::vector<int> order;
  };

  RtWorld w(1, BackendKind::Lci);
  PrioGraph graph;
  amt::RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(w.eng, w.fab, w.comm, graph, cfg);
  rt.run();
  ASSERT_EQ(graph.order.size(), 6u);
  for (std::size_t i = 1; i < graph.order.size(); ++i) {
    EXPECT_GT(graph.order[i - 1], graph.order[i])
        << "priority order violated at " << i;
  }
}

TEST(RtLatency, LciLatencyNotWorseThanMpiOnCongestedChain) {
  auto mean_latency = [](BackendKind kind) {
    RtWorld w(2, kind);
    ChainGraph graph(60, 2, /*real_data=*/false, /*data_size=*/256 * 1024);
    Runtime rt(w.eng, w.fab, w.comm, graph);
    rt.run();
    return rt.aggregate_stats().latency.e2e_mean_ns();
  };
  const double mpi = mean_latency(BackendKind::Mpi);
  const double lci = mean_latency(BackendKind::Lci);
  EXPECT_GT(mpi, 0.0);
  EXPECT_GT(lci, 0.0);
  EXPECT_LE(lci, mpi);
}

}  // namespace
