// Crash soak: fail-stop node crashes mid-TLR-Cholesky with the full
// production stack enabled — failure detector (realistic detection
// latency), end-to-end reliability sublayer (dead-peer fast-fail), and
// lineage recovery.  For k in {1, 2, 4} crashes on both backends the run
// must complete with RunStatus::Ok, re-execute lost work, and reproduce
// bit-identically per crash schedule.  A real-payload run additionally
// pins the numerics: the factorization residual must survive the loss
// and recomputation of actual tiles.
#include <gtest/gtest.h>

#include <tuple>

#include "ce/world.hpp"
#include "des/time.hpp"
#include "hicma/driver.hpp"
#include "hicma/tlr_cholesky.hpp"
#include "net/config.hpp"

namespace {

using ce::BackendKind;

std::uint64_t counter(const hicma::ExperimentResult& res,
                      std::string_view name) {
  const obs::Counter* c = res.metrics.find_counter(name);
  return c ? c->value() : 0;
}

// 8-node model-mode config matching the fig5 fingerprint rows, with the
// crash-tolerance stack switched on.
hicma::ExperimentConfig base_config(BackendKind kind) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = kind;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  cfg.rt.ft.enabled = true;
  cfg.ce.fd.enabled = true;
  cfg.ce.reliable.enabled = true;
  return cfg;
}

// Distinct victims, never rank 0, spread over the machine.
constexpr int kVictims[] = {1, 3, 5, 6};

hicma::ExperimentConfig crashed_config(BackendKind kind, int k,
                                       des::Duration clean_ns) {
  hicma::ExperimentConfig cfg = base_config(kind);
  for (int i = 0; i < k; ++i) {
    // Crash times at fractions (i+1)/(k+1) of the clean makespan: every
    // crash lands while work is provably still in flight.
    cfg.fabric.faults.crashes.push_back(net::CrashEvent{
        kVictims[i], clean_ns * (i + 1) / (k + 1), 0});
  }
  return cfg;
}

// The run completes every task, and a repeat reproduces it bit for bit.
void expect_recovers(const hicma::ExperimentConfig& cfg) {
  const auto a = hicma::run_tlr_cholesky(cfg);
  ASSERT_EQ(a.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(a.tasks_done,
            hicma::TlrCholeskyGraph(cfg.tlr, cfg.nodes).total_tasks());
  const auto b = hicma::run_tlr_cholesky(cfg);
  EXPECT_EQ(b.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(a.tts_s, b.tts_s);
  EXPECT_EQ(a.fabric_messages, b.fabric_messages);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.runtime_stats.tasks_reexecuted,
            b.runtime_stats.tasks_reexecuted);
  EXPECT_EQ(a.runtime_stats.reannounces, b.runtime_stats.reannounces);
}

class CrashBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(CrashBackends, TlrCholeskySurvivesCrashesAndIsDeterministic) {
  const auto clean = hicma::run_tlr_cholesky(base_config(GetParam()));
  ASSERT_EQ(clean.run_status, amt::RunStatus::Ok);
  const auto clean_ns = static_cast<des::Duration>(clean.tts_s * 1e9);
  ASSERT_GT(clean_ns, 0);

  for (const int k : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "crashes=" << k);
    const auto cfg = crashed_config(GetParam(), k, clean_ns);
    const auto a = hicma::run_tlr_cholesky(cfg);
    // Graceful degradation: the run completes on the survivors.
    EXPECT_EQ(a.run_status, amt::RunStatus::Ok);
    // Every scheduled crash really fired mid-run.
    EXPECT_EQ(counter(a, "net.fault.crashes"),
              static_cast<std::uint64_t>(k));
    // Detection came from the failure detector, not ground truth.
    EXPECT_GE(counter(a, "ce.fd.dead"), static_cast<std::uint64_t>(k));
    // Lost work was actually re-executed and lost tiles re-served.
    EXPECT_GT(a.runtime_stats.tasks_reexecuted, 0u);
    EXPECT_GE(a.tasks, clean.tasks);  // re-executions add raw task runs
    // Recovery costs time, never silence: makespan grows.
    EXPECT_GT(a.tts_s, clean.tts_s);

    // Bit-identical reproduction per crash schedule — the recovery
    // fingerprint the paper-style sweeps pin.
    const auto b = hicma::run_tlr_cholesky(cfg);
    EXPECT_EQ(a.tts_s, b.tts_s);
    EXPECT_EQ(a.fabric_messages, b.fabric_messages);
    EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.runtime_stats.tasks_reexecuted,
              b.runtime_stats.tasks_reexecuted);
    EXPECT_EQ(a.runtime_stats.reannounces, b.runtime_stats.reannounces);
  }
}

// Node 6 crashes while node 5's death is still being confirmed.  The
// first verdict's recovery asks node 6, which the detector still believes
// alive, to re-announce; the crashed node cannot answer, and node 6's own
// verdict re-arms what it held.
TEST_P(CrashBackends, CrashBeforeAnotherVerdictRecovers) {
  const auto clean = hicma::run_tlr_cholesky(base_config(GetParam()));
  ASSERT_EQ(clean.run_status, amt::RunStatus::Ok);
  const auto half = static_cast<des::Duration>(clean.tts_s * 1e9) / 2;
  for (const int gap_ms : {5, 20, 40, 60}) {
    SCOPED_TRACE(::testing::Message() << "gap_ms=" << gap_ms);
    hicma::ExperimentConfig cfg = base_config(GetParam());
    cfg.fabric.faults.crashes.push_back(net::CrashEvent{5, half, 0});
    cfg.fabric.faults.crashes.push_back(
        net::CrashEvent{6, half + gap_ms * des::kMillisecond, 0});
    const auto a = hicma::run_tlr_cholesky(cfg);
    EXPECT_EQ(a.run_status, amt::RunStatus::Ok);
    EXPECT_GT(a.tts_s, clean.tts_s);
    const auto b = hicma::run_tlr_cholesky(cfg);
    EXPECT_EQ(a.tts_s, b.tts_s);
    EXPECT_EQ(a.fabric_messages, b.fabric_messages);
    EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.runtime_stats.tasks_reexecuted,
              b.runtime_stats.tasks_reexecuted);
    EXPECT_EQ(a.runtime_stats.reannounces, b.runtime_stats.reannounces);
  }
}

// A recovery re-announce can reach a node whose fetch of the same flow
// is already in flight, after the verdict re-homed more of the flow's
// consumers onto that node.  The arriving data must release those
// consumers too; dropping the re-announce left them waiting forever
// (ErrDeadlock).  Two schedules that hit it: a single crash with no
// restart (arity-3 multicast), and a second crash 150 ms after the first.
TEST_P(CrashBackends, ReannounceJoinsAFetchInFlight) {
  {
    SCOPED_TRACE("node 7, arity 3");
    hicma::ExperimentConfig cfg = base_config(GetParam());
    cfg.rt.multicast_arity = 3;
    cfg.fabric.faults.crashes.push_back(net::CrashEvent{7, 824'266'422, 0});
    expect_recovers(cfg);
  }
  if (GetParam() == BackendKind::Lci) {
    SCOPED_TRACE("nodes 5 and 6, 150 ms apart");
    const auto clean = hicma::run_tlr_cholesky(base_config(GetParam()));
    const auto half = static_cast<des::Duration>(clean.tts_s * 1e9) / 2;
    hicma::ExperimentConfig cfg = base_config(GetParam());
    cfg.fabric.faults.crashes.push_back(net::CrashEvent{5, half, 0});
    cfg.fabric.faults.crashes.push_back(
        net::CrashEvent{6, half + 150 * des::kMillisecond, 0});
    expect_recovers(cfg);
  }
}

// Node 3 crashes at half the clean makespan and restarts before (30 ms)
// or after (100, 300 ms) the detector's verdict.  A restart revives only
// the comm level, so the node answers heartbeats again: without recovery
// at the restart no verdict ever came, and the 30 ms run ended
// ErrDeadlock.
TEST_P(CrashBackends, RestartBeforeVerdictRecovers) {
  const auto clean = hicma::run_tlr_cholesky(base_config(GetParam()));
  ASSERT_EQ(clean.run_status, amt::RunStatus::Ok);
  const auto half = static_cast<des::Duration>(clean.tts_s * 1e9) / 2;
  for (const int restart_ms : {30, 100, 300}) {
    SCOPED_TRACE(::testing::Message() << "restart_ms=" << restart_ms);
    hicma::ExperimentConfig cfg = base_config(GetParam());
    cfg.fabric.faults.crashes.push_back(
        net::CrashEvent{3, half, half + restart_ms * des::kMillisecond});
    expect_recovers(cfg);
  }
}

// Recovery re-announces a lost flow once per destination node per pass.
// In this schedule one verdict used to send the output of TRSM(3,1) to
// node 3 once for each of its four waiting consumers there.
TEST_P(CrashBackends, ReannouncesOncePerFlowAndDestination) {
  hicma::ExperimentConfig cfg = base_config(GetParam());
  cfg.rt.multicast_arity = 3;
  cfg.fabric.faults.crashes.push_back(net::CrashEvent{7, 824'266'422, 0});
  const auto res = hicma::run_tlr_cholesky(cfg);
  ASSERT_EQ(res.run_status, amt::RunStatus::Ok);
  const amt::NodeStats& s = res.runtime_stats;
  // One re-announce per waiting consumer made 56, and 23 of them
  // reached a node already fetching the flow.
  EXPECT_EQ(s.reannounces, 38u);
  EXPECT_EQ(s.local_reannounces, 3u);
  EXPECT_EQ(s.stale_activations, 5u);
}

TEST_P(CrashBackends, RealPayloadFactorizationSurvivesACrash) {
  // Real (numeric) tiles: a mid-run crash loses actual data; recovery
  // must re-produce it and the factorization must still verify.
  auto real_cfg = [&](bool with_crash, des::Duration clean_ns) {
    hicma::ExperimentConfig cfg;
    cfg.nodes = 4;
    cfg.backend = GetParam();
    cfg.tlr.mode = hicma::TlrOptions::Mode::Real;
    cfg.tlr.n = 192;
    cfg.tlr.nb = 32;
    cfg.tlr.accuracy = 1e-9;
    cfg.tlr.maxrank = 32;
    cfg.tlr.problem.length_scale = 0.2;
    cfg.tlr.problem.noise = 0.05;
    cfg.workers_override = 4;
    cfg.rt.ft.enabled = true;
    cfg.ce.fd.enabled = true;
    cfg.ce.reliable.enabled = true;
    if (with_crash) {
      cfg.fabric.faults.crashes.push_back(
          net::CrashEvent{2, clean_ns / 3, 0});
    }
    return cfg;
  };
  const auto clean = hicma::run_tlr_cholesky(real_cfg(false, 0));
  ASSERT_EQ(clean.run_status, amt::RunStatus::Ok);
  ASSERT_LT(clean.residual, 1e-7);
  const auto clean_ns = static_cast<des::Duration>(clean.tts_s * 1e9);

  const auto a = hicma::run_tlr_cholesky(real_cfg(true, clean_ns));
  EXPECT_EQ(a.run_status, amt::RunStatus::Ok);
  EXPECT_LT(a.residual, 1e-7);  // recomputed tiles are numerically right
  EXPECT_GT(a.runtime_stats.tasks_reexecuted, 0u);

  const auto b = hicma::run_tlr_cholesky(real_cfg(true, clean_ns));
  EXPECT_EQ(a.residual, b.residual);  // bit-identical numerics per seed
  EXPECT_EQ(a.tts_s, b.tts_s);
}

INSTANTIATE_TEST_SUITE_P(Backends, CrashBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& pinfo) {
                           return pinfo.param == BackendKind::Mpi ? "Mpi"
                                                                  : "Lci";
                         });

}  // namespace
