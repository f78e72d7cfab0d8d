// Bit-reproducibility fingerprints for the fig4/fig5 pipeline.
//
// Each row pins the EXACT time-to-solution, message count, byte count,
// and critical-path finish of a small model-mode TLR-Cholesky run under
// the default two-level fabric preset.  These values were captured from
// the pre-topology build; the event queue, per-node delivery slabs, and
// fat-tree plumbing must all reproduce them to the last bit
// — any drift here means a published figure silently changed.
//
// If a deliberate model change invalidates these rows, re-capture them
// in the same commit and say so in the commit message.
#include <gtest/gtest.h>

#include <cstdint>

#include "hicma/driver.hpp"
#include "net/config.hpp"

namespace {

struct Fingerprint {
  int nodes;
  ce::BackendKind backend;
  bool mt_activate;
  double tts_s;
  std::uint64_t msgs;
  std::uint64_t bytes;
  std::int64_t crit;
};

constexpr Fingerprint kExpected[] = {
    {4, ce::BackendKind::Lci, false, 2.688176066, 1474, 993860329,
     2688176066},
    {4, ce::BackendKind::Lci, true, 2.7107365540000004, 1518, 993863233,
     2710732339},
    {4, ce::BackendKind::Mpi, false, 2.7108171470000002, 1470, 993860065,
     2710817147},
    {4, ce::BackendKind::Mpi, true, 2.7108881970000001, 1518, 993863233,
     2710876682},
    {8, ce::BackendKind::Lci, false, 2.5041015840000003, 2674, 1145289249,
     2504101584},
    {8, ce::BackendKind::Lci, true, 2.6315685360000001, 2718, 1145292153,
     2631564321},
    {8, ce::BackendKind::Mpi, false, 2.5595929630000001, 2671, 1145289051,
     2559592963},
    {8, ce::BackendKind::Mpi, true, 2.4638495120000004, 2718, 1145292153,
     2463837997},
};

TEST(Fingerprint, Fig5PipelineIsBitIdenticalToBaseline) {
  for (const Fingerprint& fp : kExpected) {
    hicma::ExperimentConfig cfg;
    cfg.nodes = fp.nodes;
    cfg.backend = fp.backend;
    cfg.mt_activate = fp.mt_activate;
    cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
    cfg.tlr.n = 36000;
    cfg.tlr.nb = 3000;
    const auto res = hicma::run_tlr_cholesky(cfg);
    const char* label =
        fp.backend == ce::BackendKind::Lci ? "lci" : "mpi";
    SCOPED_TRACE(::testing::Message()
                 << "nodes=" << fp.nodes << " backend=" << label
                 << " mt=" << fp.mt_activate);
    // Exact double equality is intentional: the simulation is integer
    // nanoseconds underneath, so equality is reproducibility, and any
    // epsilon would mask real drift.
    EXPECT_EQ(res.tts_s, fp.tts_s);
    EXPECT_EQ(res.fabric_messages, fp.msgs);
    EXPECT_EQ(res.fabric_bytes, fp.bytes);
    EXPECT_EQ(res.runtime_stats.crit.finish_g, fp.crit);
  }
}

// The same pipeline at 256 nodes on the explicit-link fat tree: the
// scale at which every node's events interleave in the DES queue, so any
// drift in the queue's global (time, seq) order shows up here first.
// Captured before the per-node queue shards were collapsed into one
// owner-tagged queue; events_fired pins the DES event count as well.
struct ScaleFingerprint {
  ce::BackendKind backend;
  double tts_s;
  std::uint64_t msgs;
  std::uint64_t bytes;
  std::int64_t crit;
  std::uint64_t events;
};

constexpr ScaleFingerprint kExpectedFatTree256[] = {
    {ce::BackendKind::Lci, 2.7579189710000001, 6447, 5566459572, 2757918971,
     34144},
    {ce::BackendKind::Mpi, 2.7586092400000002, 6447, 5566459572, 2758609240,
     17349},
};

TEST(Fingerprint, FatTree256IsBitIdenticalToBaseline) {
  for (const ScaleFingerprint& fp : kExpectedFatTree256) {
    hicma::ExperimentConfig cfg;
    cfg.nodes = 256;
    cfg.backend = fp.backend;
    cfg.fabric = net::expanse_fat_tree_config();
    cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
    cfg.tlr.n = 36000;
    cfg.tlr.nb = 3000;
    const auto res = hicma::run_tlr_cholesky(cfg);
    SCOPED_TRACE(fp.backend == ce::BackendKind::Lci ? "lci" : "mpi");
    EXPECT_EQ(res.tts_s, fp.tts_s);
    EXPECT_EQ(res.fabric_messages, fp.msgs);
    EXPECT_EQ(res.fabric_bytes, fp.bytes);
    EXPECT_EQ(res.runtime_stats.crit.finish_g, fp.crit);
    EXPECT_EQ(res.events_fired, fp.events);
  }
}

// One fail-stop crash under the full fault-tolerance stack (reliable
// sublayer, failure detector, lineage re-execution).  The crash cancels
// every pending DES event the victim owns; the cancelled count and the
// recovered run's TTS and message count pin that path bit for bit.
TEST(Fingerprint, CrashRecoveryIsBitIdenticalToBaseline) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = ce::BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  cfg.rt.ft.enabled = true;
  cfg.ce.fd.enabled = true;
  cfg.ce.reliable.enabled = true;
  cfg.fabric.faults.crashes.push_back(net::CrashEvent{5, 900'000'000, 0});
  const auto res = hicma::run_tlr_cholesky(cfg);
  const obs::Counter* crashes = res.metrics.find_counter("net.fault.crashes");
  const obs::Counter* cancelled =
      res.metrics.find_counter("net.fault.crash_cancelled");
  ASSERT_NE(crashes, nullptr);
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(crashes->value(), 1u);
  EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(res.tts_s, 3.1027536840000001);
  EXPECT_EQ(res.fabric_messages, 37042u);
  EXPECT_EQ(cancelled->value(), 15u);
}

// The MPI backend with its transfer cap squeezed to 2: puts find no array
// space and are deferred, handshakes post dynamic receives that wait for
// promotion (§4.2.2).  Captured before the mmpi request store became a
// slot table and MpiBackend::progress started compacting in place.
TEST(Fingerprint, MpiDeferredTransfersAreBitIdenticalToBaseline) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = ce::BackendKind::Mpi;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  cfg.ce.max_concurrent_transfers = 2;
  const auto res = hicma::run_tlr_cholesky(cfg);
  EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(res.tts_s, 2.5595929630000001);
  EXPECT_EQ(res.fabric_messages, 2671u);
  EXPECT_EQ(res.events_fired, 7306u);
  // Both deferral paths must stay exercised for this row to mean anything.
  EXPECT_GT(res.ce_stats.puts_deferred, 0u);
  EXPECT_GT(res.ce_stats.recvs_dynamic, 0u);
  EXPECT_EQ(res.ce_stats.puts_deferred, 106u);
  EXPECT_EQ(res.ce_stats.recvs_dynamic, 40u);
}

// The crash row above on the MPI backend: failure-detector confirmation
// drives MpiBackend::peer_failed and mmpi::Rank::purge_peer over requests
// wedged on the dead node.
TEST(Fingerprint, MpiCrashRecoveryIsBitIdenticalToBaseline) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = ce::BackendKind::Mpi;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  cfg.rt.ft.enabled = true;
  cfg.ce.fd.enabled = true;
  cfg.ce.reliable.enabled = true;
  cfg.fabric.faults.crashes.push_back(net::CrashEvent{5, 900'000'000, 0});
  const auto res = hicma::run_tlr_cholesky(cfg);
  const obs::Counter* cancelled =
      res.metrics.find_counter("net.fault.crash_cancelled");
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(res.tts_s, 3.2227821900000002);
  EXPECT_EQ(res.fabric_messages, 37436u);
  EXPECT_EQ(res.events_fired, 48434u);
  EXPECT_EQ(cancelled->value(), 1u);
}

}  // namespace
