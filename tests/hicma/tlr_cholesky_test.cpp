#include "hicma/tlr_cholesky.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "hicma/driver.hpp"

namespace {

using ce::BackendKind;
using hicma::ExperimentConfig;
using hicma::run_tlr_cholesky;
using hicma::TlrCholeskyGraph;
using hicma::TlrOptions;

TlrOptions real_options(int n, int nb) {
  TlrOptions o;
  o.mode = TlrOptions::Mode::Real;
  o.n = n;
  o.nb = nb;
  o.accuracy = 1e-9;
  o.maxrank = nb;  // uncapped at test scale
  o.problem.length_scale = 0.2;
  o.problem.noise = 0.05;  // healthy SPD margin at small N
  return o;
}

TEST(TlrGraphShape, TaskCountFormula) {
  TlrOptions o;
  o.mode = TlrOptions::Mode::Model;
  o.n = 12000;
  o.nb = 1200;  // nt = 10
  TlrCholeskyGraph g(o, 4);
  // nt=10: 10 diag + 45 cmpr + 10 potrf + 45 trsm + 45 syrk + 120 gemm
  EXPECT_EQ(g.total_tasks(), 10u + 45 + 10 + 45 + 45 + 120);
}

TEST(TlrGraphShape, PaperScaleTaskCountMatchesText) {
  // §6.4.2: tile 6000 on N=360,000 gives 60 tiles/dim, 1830 tiles total
  // on/below the diagonal, and ~37,820 tasks.
  TlrOptions o;
  o.mode = TlrOptions::Mode::Model;
  o.n = 360000;
  o.nb = 6000;
  TlrCholeskyGraph g(o, 16);
  EXPECT_EQ(g.total_tasks(),
            60u + 1770 + 60 + 1770 + 1770 + 60u * 59 * 58 / 6);
  EXPECT_NEAR(static_cast<double>(g.total_tasks()), 37820.0, 2000.0);
}

TEST(TlrGraphShape, EveryTaskHasAnOwnerInRange) {
  TlrOptions o;
  o.mode = TlrOptions::Mode::Model;
  o.n = 9600;
  o.nb = 1200;
  TlrCholeskyGraph g(o, 6);
  const int nt = o.nt();
  for (int i = 0; i < nt; ++i) {
    for (int j = 0; j <= i; ++j) {
      for (int cls : {hicma::kDiag, hicma::kPotrf, hicma::kTrsm,
                      hicma::kSyrk}) {
        const amt::TaskKey t{cls, i, j};
        EXPECT_GE(g.rank_of(t), 0);
        EXPECT_LT(g.rank_of(t), 6);
      }
    }
  }
}

TEST(TlrGraphShape, SuccessorInputIndicesAreConsistent) {
  // For every task and output flow, each successor must list an input
  // index < its num_inputs, and flow fan-ins must be unique.
  TlrOptions o;
  o.mode = TlrOptions::Mode::Model;
  o.n = 8400;
  o.nb = 1200;  // nt = 7
  TlrCholeskyGraph g(o, 4);
  const int nt = o.nt();
  std::map<std::pair<std::array<int, 4>, int>, int> fanin;
  auto visit = [&](const amt::TaskKey& t) {
    std::vector<amt::Dep> deps;
    for (int f = 0; f < g.num_outputs(t); ++f) {
      deps.clear();
      g.successors(t, f, deps);
      for (const auto& d : deps) {
        EXPECT_LT(d.input, g.num_inputs(d.task));
        EXPECT_GE(d.input, 0);
        const std::array<int, 4> key{d.task.cls, d.task.i, d.task.j,
                                     d.task.k};
        ++fanin[{key, d.input}];
      }
    }
  };
  for (int i = 0; i < nt; ++i) {
    visit({hicma::kDiag, i});
    visit({hicma::kPotrf, i});
    for (int j = 0; j < i; ++j) {
      visit({hicma::kCmpr, i, j});
      visit({hicma::kTrsm, i, j});
      visit({hicma::kSyrk, i, j});
      for (int k = 0; k < j; ++k) visit({hicma::kGemm, i, j, k});
    }
  }
  // Every (task, input) port is fed exactly once, and the total number of
  // fed ports equals the sum of num_inputs over all tasks.
  std::uint64_t expected_ports = 0;
  for (int i = 0; i < nt; ++i) {
    expected_ports += static_cast<std::uint64_t>(
        g.num_inputs({hicma::kPotrf, i}));
    for (int j = 0; j < i; ++j) {
      expected_ports +=
          static_cast<std::uint64_t>(g.num_inputs({hicma::kTrsm, i, j})) +
          static_cast<std::uint64_t>(g.num_inputs({hicma::kSyrk, i, j}));
      for (int k = 0; k < j; ++k) {
        expected_ports += static_cast<std::uint64_t>(
            g.num_inputs({hicma::kGemm, i, j, k}));
      }
    }
  }
  std::uint64_t fed = 0;
  for (const auto& [port, count] : fanin) {
    EXPECT_EQ(count, 1) << "port fed " << count << " times";
    ++fed;
  }
  EXPECT_EQ(fed, expected_ports);
}

// successors_on() must be successors() filtered by rank_of(), in order,
// for every task, flow and rank: the TLR override steps the panel loops
// by the grid period instead of filtering.  Grids: 2x2 (p == q), 2x3 and
// 2x4 (p != q), 1x7 (a prime node count).
TEST(TlrGraphShape, SuccessorsOnMatchesFilteredSuccessors) {
  for (const int nodes : {4, 6, 8, 7}) {
    TlrOptions o;
    o.mode = TlrOptions::Mode::Model;
    o.n = 13200;
    o.nb = 1200;  // nt = 11
    TlrCholeskyGraph g(o, nodes);
    const int nt = o.nt();
    std::vector<amt::TaskKey> tasks;
    for (int i = 0; i < nt; ++i) {
      tasks.push_back({hicma::kDiag, i});
      tasks.push_back({hicma::kPotrf, i});
      for (int j = 0; j < i; ++j) {
        tasks.push_back({hicma::kCmpr, i, j});
        tasks.push_back({hicma::kTrsm, i, j});
        tasks.push_back({hicma::kSyrk, i, j});
        for (int k = 0; k < j; ++k) tasks.push_back({hicma::kGemm, i, j, k});
      }
    }
    std::size_t compared = 0;
    for (const amt::TaskKey& t : tasks) {
      for (int f = 0; f < g.num_outputs(t); ++f) {
        std::vector<amt::Dep> all;
        g.successors(t, f, all);
        for (int r = 0; r < nodes; ++r) {
          std::vector<amt::Dep> want;
          for (const amt::Dep& d : all) {
            if (g.rank_of(d.task) == r) want.push_back(d);
          }
          // Appends after what `out` already holds.
          std::vector<amt::Dep> got{amt::Dep{amt::TaskKey{-1}, -1}};
          g.successors_on(r, t, f, got);
          ASSERT_EQ(got.size(), want.size() + 1)
              << "nodes=" << nodes << " cls=" << t.cls << " (" << t.i << ","
              << t.j << "," << t.k << ") flow=" << f << " rank=" << r;
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i + 1].task, want[i].task);
            EXPECT_EQ(got[i + 1].input, want[i].input);
          }
          compared += want.size();
        }
      }
    }
    // Every consumer is owned by exactly one rank.
    std::size_t total = 0;
    for (const amt::TaskKey& t : tasks) {
      for (int f = 0; f < g.num_outputs(t); ++f) {
        std::vector<amt::Dep> all;
        g.successors(t, f, all);
        total += all.size();
      }
    }
    EXPECT_EQ(compared, total) << "nodes=" << nodes;
  }
}

// task_id() must map the graph's tasks one-to-one onto
// [0, total_tasks()).  The tasks come from walking the graph from its
// sources, not from the id formula.  nt = 120 is the perfbench size.
TEST(TlrGraphShape, TaskIdIsABijectionOntoTotalTasks) {
  for (const int nt : {1, 2, 3, 7, 120}) {
    TlrOptions o;
    o.mode = TlrOptions::Mode::Model;
    o.nb = 100;
    o.n = nt * o.nb;
    TlrCholeskyGraph g(o, 4);
    const std::uint64_t total = g.total_tasks();
    std::vector<amt::TaskKey> owner_of(total, amt::TaskKey{-1});
    std::vector<amt::TaskKey> stack;
    std::uint64_t seen = 0;
    const auto visit = [&](const amt::TaskKey& t) {
      const std::uint64_t id = g.task_id(t);
      ASSERT_LT(id, total) << "nt=" << nt << " cls=" << t.cls;
      amt::TaskKey& slot = owner_of[id];
      if (slot.cls == -1) {
        slot = t;
        ++seen;
        stack.push_back(t);
      } else {
        ASSERT_EQ(slot, t) << "nt=" << nt << " id " << id << " is shared";
      }
    };
    std::vector<amt::TaskKey> sources;
    for (int r = 0; r < 4; ++r) g.initial_tasks(r, sources);
    for (const amt::TaskKey& t : sources) visit(t);
    std::vector<amt::Dep> deps;
    while (!stack.empty()) {
      const amt::TaskKey t = stack.back();
      stack.pop_back();
      for (int f = 0; f < g.num_outputs(t); ++f) {
        deps.clear();
        g.successors(t, f, deps);
        for (const amt::Dep& d : deps) visit(d.task);
      }
    }
    EXPECT_EQ(seen, total) << "nt=" << nt;
  }
}

class TlrRealCorrectness
    : public ::testing::TestWithParam<std::tuple<int, int, BackendKind>> {};

TEST_P(TlrRealCorrectness, FactorizationResidualIsSmall) {
  const auto [nt, nodes, kind] = GetParam();
  const int nb = 32;
  ExperimentConfig cfg;
  cfg.nodes = nodes;
  cfg.backend = kind;
  cfg.tlr = real_options(nt * nb, nb);
  cfg.workers_override = 4;
  const auto res = run_tlr_cholesky(cfg);
  EXPECT_EQ(res.tasks, TlrCholeskyGraph(cfg.tlr, nodes).total_tasks());
  EXPECT_GE(res.residual, 0.0);
  EXPECT_LT(res.residual, 1e-6)
      << "TLR factorization residual too large";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TlrRealCorrectness,
    ::testing::Combine(::testing::Values(2, 4, 6), ::testing::Values(1, 4),
                       ::testing::Values(BackendKind::Mpi, BackendKind::Lci)),
    [](const auto& tp) {
      return "nt" + std::to_string(std::get<0>(tp.param)) + "_nodes" +
             std::to_string(std::get<1>(tp.param)) +
             (std::get<2>(tp.param) == BackendKind::Mpi ? "_Mpi" : "_Lci");
    });

TEST(TlrRealAccuracy, LooserAccuracyGivesLargerResidualAndLowerRank) {
  auto run_at = [&](double acc) {
    ExperimentConfig cfg;
    cfg.nodes = 2;
    cfg.backend = BackendKind::Lci;
    cfg.tlr = real_options(160, 32);
    cfg.tlr.accuracy = acc;
    cfg.workers_override = 2;
    return run_tlr_cholesky(cfg);
  };
  const auto tight = run_at(1e-10);
  const auto loose = run_at(1e-3);
  EXPECT_LT(tight.residual, loose.residual + 1e-12);
  EXPECT_GE(tight.mean_rank, loose.mean_rank);
}

TEST(TlrModel, ModelModeRunsPaperTileAtSmallN) {
  ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.backend = BackendKind::Lci;
  cfg.tlr.mode = TlrOptions::Mode::Model;
  cfg.tlr.n = 48000;
  cfg.tlr.nb = 2400;  // nt = 20
  cfg.workers_override = 16;
  const auto res = run_tlr_cholesky(cfg);
  EXPECT_GT(res.tts_s, 0.0);
  EXPECT_GT(res.latency.count(), 0u);
  EXPECT_GT(res.fabric_bytes, 0u);
  EXPECT_GT(res.mean_rank, 1.0);
}

TEST(TlrModel, BothBackendsMoveIdenticalLogicalTraffic) {
  auto run_kind = [&](BackendKind kind) {
    ExperimentConfig cfg;
    cfg.nodes = 4;
    cfg.backend = kind;
    cfg.tlr.mode = TlrOptions::Mode::Model;
    cfg.tlr.n = 24000;
    cfg.tlr.nb = 2400;
    cfg.workers_override = 8;
    return run_tlr_cholesky(cfg);
  };
  const auto mpi = run_kind(BackendKind::Mpi);
  const auto lci = run_kind(BackendKind::Lci);
  // The task graph and data distribution are backend-independent.
  EXPECT_EQ(mpi.tasks, lci.tasks);
  EXPECT_EQ(mpi.runtime_stats.data_arrivals, lci.runtime_stats.data_arrivals);
  EXPECT_EQ(mpi.runtime_stats.getdata_sent, lci.runtime_stats.getdata_sent);
}

}  // namespace
