// Full-stack integration tests: fabric + library + backend + runtime +
// application, on both backends, including latency instrumentation and
// the microbenchmark graphs the paper's evaluation uses.
#include <gtest/gtest.h>

#include "bench_util/harness.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "hicma/driver.hpp"
#include "net/fabric.hpp"
#include "amt/runtime.hpp"

namespace {

using ce::BackendKind;

class E2eBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(E2eBackends, RealTlrCholeskyVerifies) {
  // Real numerics on the full stack; latency instrumentation must yield
  // sane values and the factorization must hold.
  des::Engine eng;
  net::Fabric fab(eng, 4);
  ce::CommWorld comm(fab, GetParam());
  hicma::TlrOptions opts;
  opts.mode = hicma::TlrOptions::Mode::Real;
  opts.n = 192;
  opts.nb = 32;
  opts.accuracy = 1e-9;
  opts.maxrank = 32;
  opts.problem.length_scale = 0.2;
  opts.problem.noise = 0.05;
  hicma::TlrCholeskyGraph graph(opts, 4);
  amt::RuntimeConfig rt;
  rt.workers = 4;
  amt::Runtime runtime(eng, fab, comm, graph, rt);
  runtime.run();

  EXPECT_LT(graph.verify(), 1e-7);
  const auto agg = runtime.aggregate_stats();
  ASSERT_GT(agg.latency.count(), 0u);
  EXPECT_GT(agg.latency.e2e_mean_ns(), 0.0);
  EXPECT_GE(agg.latency.hop_mean_ns(), 0.0);
  // Tile transfers on this 4-node cluster take well under 2 ms.
  EXPECT_LT(agg.latency.e2e_mean_ns(), 2e6);
}

TEST_P(E2eBackends, PingPongBandwidthIsPhysical) {
  bench::PingPongOptions opts;
  opts.fragment_bytes = 256 << 10;
  opts.total_bytes = 32ull << 20;
  opts.iterations = 4;
  const auto res = bench::run_pingpong(GetParam(), opts);
  EXPECT_GT(res.gbit_per_s, 10.0);
  EXPECT_LT(res.gbit_per_s, 100.5);  // cannot beat the wire
}

TEST_P(E2eBackends, PingPongNoSyncAtLeastAsFast) {
  bench::PingPongOptions opts;
  opts.fragment_bytes = 1 << 20;
  opts.total_bytes = 32ull << 20;
  opts.iterations = 4;
  opts.streams = 2;
  const auto with_sync = bench::run_pingpong(GetParam(), opts);
  opts.sync = false;
  const auto without = bench::run_pingpong(GetParam(), opts);
  EXPECT_GE(without.gbit_per_s, with_sync.gbit_per_s * 0.95);
}

TEST_P(E2eBackends, ModelModeHicmaSmallTileIsCommHeavier) {
  auto run = [&](int nb) {
    hicma::ExperimentConfig cfg;
    cfg.nodes = 4;
    cfg.backend = GetParam();
    cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
    cfg.tlr.n = 36000;
    cfg.tlr.nb = nb;
    cfg.workers_override = 16;
    return hicma::run_tlr_cholesky(cfg);
  };
  const auto small = run(1200);
  const auto large = run(3600);
  // Smaller tiles => more messages on the wire.
  EXPECT_GT(small.fabric_messages, large.fabric_messages);
  EXPECT_EQ(small.residual, -1);  // model mode has no numerics
}

INSTANTIATE_TEST_SUITE_P(Backends, E2eBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& tp) {
                           return tp.param == BackendKind::Mpi ? "Mpi"
                                                               : "Lci";
                         });

TEST(E2eComparison, LciBeatsMpiOnFineGrainedPingPong) {
  // The paper's headline microbenchmark claim at a fine granularity.
  bench::PingPongOptions opts;
  opts.fragment_bytes = 32 << 10;
  opts.total_bytes = 32ull << 20;
  opts.iterations = 4;
  const auto lci = bench::run_pingpong(BackendKind::Lci, opts);
  const auto mpi = bench::run_pingpong(BackendKind::Mpi, opts);
  EXPECT_GT(lci.gbit_per_s, mpi.gbit_per_s * 1.5);
}

}  // namespace
