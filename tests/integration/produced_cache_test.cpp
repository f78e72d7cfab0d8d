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

#include <vector>

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
  EXPECT_EQ(s.reannounces, 14u);
  // Both re-announce legs and the retired-flow GET DATA branch ran.
  EXPECT_EQ(s.local_reannounces, 9u);
  EXPECT_EQ(s.cache_serves, 5u);
  EXPECT_EQ(s.dup_inputs_dropped, 2u);
  EXPECT_EQ(s.stale_activations, 0u);
  EXPECT_EQ(s.fetches_abandoned, 0u);
}

// Flows with a consumer off their producer's owner-computes rank: in a
// crash-free run, the flows whose producer's home multicasts them.
std::uint64_t root_publications(const hicma::TlrOptions& o, int nodes) {
  const hicma::TlrCholeskyGraph g(o, nodes);
  std::vector<char> seen(g.total_tasks(), 0);
  std::vector<amt::TaskKey> stack;
  for (int r = 0; r < nodes; ++r) g.initial_tasks(r, stack);
  for (const amt::TaskKey& t : stack) seen[g.task_id(t)] = 1;
  std::uint64_t roots = 0;
  std::vector<amt::Dep> deps;
  while (!stack.empty()) {
    const amt::TaskKey t = stack.back();
    stack.pop_back();
    for (int f = 0; f < g.num_outputs(t); ++f) {
      deps.clear();
      g.successors(t, f, deps);
      bool remote = false;
      for (const amt::Dep& d : deps) {
        remote |= g.rank_of(d.task) != g.rank_of(t);
        char& s = seen[g.task_id(d.task)];
        if (s == 0) {
          s = 1;
          stack.push_back(d.task);
        }
      }
      roots += remote ? 1 : 0;
    }
  }
  return roots;
}

// The fingerprint config with fault tolerance on and no crash: its
// multicast trees (arity 2 over up to 7 destinations) forward.
TEST(ProducedCache, CrashFreeRunRecordCount) {
  hicma::ExperimentConfig cfg = crash_config();
  cfg.nodes = 8;
  cfg.tlr.n = 36000;
  cfg.fabric.faults.crashes.clear();
  const hicma::ExperimentResult res = hicma::run_tlr_cholesky(cfg);
  ASSERT_EQ(res.run_status, amt::RunStatus::Ok);
  const amt::NodeStats& s = res.runtime_stats;
  const std::uint64_t roots = root_publications(cfg.tlr, cfg.nodes);
  EXPECT_EQ(roots, 143u);
  EXPECT_EQ(s.forwards, 180u);
  // Only the producer's home appends; the 180 forwards add nothing.
  EXPECT_EQ(s.produced_records, roots);
}

// A cascade of four crashes, no restarts.  After the second, node 5
// re-executes producers whose consumers on other nodes have all run; the
// third crash re-arms those consumers, and their re-announces find the
// producers' records only because Done consumers count.  Without them
// the run ends in ErrTileLost.
TEST(ProducedCache, ProducerLogsFlowsOfDoneOffNodeConsumers) {
  hicma::ExperimentConfig cfg = crash_config();
  cfg.nodes = 8;
  cfg.tlr.n = 51000;
  cfg.rt.multicast_arity = 2;
  cfg.fabric.faults.crashes = {net::CrashEvent{7, 1'263'311'549, 0},
                               net::CrashEvent{3, 1'506'255'886, 0},
                               net::CrashEvent{2, 2'724'014'372, 0},
                               net::CrashEvent{6, 2'757'419'218, 0}};
  const hicma::ExperimentResult a = hicma::run_tlr_cholesky(cfg);
  ASSERT_EQ(a.run_status, amt::RunStatus::Ok);
  const hicma::ExperimentResult b = hicma::run_tlr_cholesky(cfg);
  EXPECT_EQ(b.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(a.tts_s, b.tts_s);
  EXPECT_EQ(a.fabric_messages, b.fabric_messages);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.runtime_stats.tasks_reexecuted,
            b.runtime_stats.tasks_reexecuted);
  EXPECT_EQ(a.runtime_stats.reannounces, b.runtime_stats.reannounces);
  EXPECT_EQ(a.runtime_stats.cache_serves, b.runtime_stats.cache_serves);
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
