// The produced-data cache's two readers and its miss, through the whole
// fault-tolerant stack (failure detector, reliability sublayer, lineage).
//
// One Model-mode crash schedule reaches every read path: recovery
// re-announces cached flows both to consumers on the serving node and to
// remote ones, and the remote consumers' GET DATAs find the flow's
// outgoing entry retired and are served from the cache.  The pins below
// were captured before the cache changed layout; they hold the recovered
// schedule bit for bit.
#include <gtest/gtest.h>

#include "amt/runtime.hpp"
#include "amt/wire.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/time.hpp"
#include "hicma/driver.hpp"
#include "hicma/tlr_cholesky.hpp"
#include "net/fabric.hpp"

namespace {

// 4 nodes, 6x6 tiles; node 3 dies at 900 ms with finished tiles that
// survivors still need.
hicma::ExperimentConfig crash_config() {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.backend = ce::BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 18000;
  cfg.tlr.nb = 3000;
  cfg.rt.ft.enabled = true;
  cfg.ce.fd.enabled = true;
  cfg.ce.reliable.enabled = true;
  cfg.fabric.faults.crashes.push_back(net::CrashEvent{3, 900'000'000, 0});
  return cfg;
}

TEST(ProducedCache, CrashScheduleReadsTheCacheOnEveryPath) {
  const hicma::ExperimentResult res = hicma::run_tlr_cholesky(crash_config());
  ASSERT_EQ(res.run_status, amt::RunStatus::Ok);
  const amt::NodeStats& s = res.runtime_stats;
  EXPECT_EQ(res.tts_s, 2.5264368840000002);
  EXPECT_EQ(res.fabric_messages, 5179u);
  EXPECT_EQ(s.tasks_executed, 84u);
  EXPECT_EQ(s.tasks_reexecuted, 9u);
  EXPECT_EQ(s.reannounces, 15u);
  // Both re-announce legs and the retired-flow GET DATA branch ran.
  EXPECT_EQ(s.local_reannounces, 9u);
  EXPECT_EQ(s.cache_serves, 5u);
  EXPECT_EQ(s.dup_inputs_dropped, 2u);
  EXPECT_EQ(s.stale_activations, 1u);
  EXPECT_EQ(s.fetches_abandoned, 0u);
}

// A GET DATA for a flow that no node ever produced: the outgoing table
// and the cache both miss, and the run fails closed instead of aborting.
TEST(ProducedCache, MissFailsClosedWithTileLost) {
  hicma::TlrOptions o;
  o.mode = hicma::TlrOptions::Mode::Model;
  o.n = 18000;
  o.nb = 3000;
  des::Engine eng;
  net::Fabric fab(eng, 4);
  ce::CommWorld comm(fab, ce::BackendKind::Lci);
  hicma::TlrCholeskyGraph graph(o, 4);
  amt::RuntimeConfig cfg;
  cfg.ft.enabled = true;
  amt::Runtime rt(eng, fab, comm, graph, cfg);
  amt::wire::GetDataMsg g;
  g.flow = amt::FlowKey{amt::TaskKey{99, 0, 0, 0}, 0};
  eng.schedule_at(10 * des::kMicrosecond, [&comm, g]() {
    EXPECT_EQ(comm.engine(0).send_am(amt::wire::kTagGetData, 1, &g, sizeof g),
              ce::Status::Ok);
  });
  rt.run();
  EXPECT_EQ(rt.run_status(), amt::RunStatus::ErrTileLost);
}

}  // namespace
