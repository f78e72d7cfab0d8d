// Bit-reproducibility fingerprints for the fig4/fig5 pipeline.
//
// Each row pins the EXACT time-to-solution, message count, byte count,
// and critical-path finish of a small model-mode TLR-Cholesky run under
// the default two-level fabric preset; the Fig5 and crash rows also pin
// the latency and lifecycle-stage histograms (LatencyPin).  The schedule
// values were captured from the pre-topology build; the event queue,
// per-node delivery slabs, and fat-tree plumbing must all reproduce them
// to the last bit — any drift here means a published figure silently
// changed.
//
// If a deliberate model change invalidates these rows, re-capture them
// in the same commit and say so in the commit message.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>

#include "amt/config.hpp"
#include "hicma/driver.hpp"
#include "net/config.hpp"

namespace {

// The measured intervals of a run, which the schedule pins above them do
// not reach: a swapped send_ts/root_ts or a stage stamped at the wrong
// point leaves TTS and message counts alone but moves these.
struct LatencyPin {
  std::uint64_t count;
  double e2e_mean;
  double e2e_p50;
  double e2e_p99;
  double hop_mean;
  std::array<std::uint64_t, amt::kNumStages> stage_count;
  std::array<double, amt::kNumStages> stage_sum;
};

void expect_latency(const amt::NodeStats& s, const LatencyPin& pin) {
  EXPECT_EQ(s.latency.count(), pin.count);
  EXPECT_EQ(s.latency.e2e_mean_ns(), pin.e2e_mean);
  EXPECT_EQ(s.latency.e2e_p50_ns(), pin.e2e_p50);
  EXPECT_EQ(s.latency.e2e_p99_ns(), pin.e2e_p99);
  EXPECT_EQ(s.latency.hop_mean_ns(), pin.hop_mean);
  for (std::size_t i = 0; i < pin.stage_sum.size(); ++i) {
    SCOPED_TRACE(amt::kStageNames[i]);
    EXPECT_EQ(s.stages.h[i].count(), pin.stage_count[i]);
    EXPECT_EQ(s.stages.h[i].sum(), pin.stage_sum[i]);
  }
}

struct Fingerprint {
  int nodes;
  ce::BackendKind backend;
  bool mt_activate;
  double tts_s;
  std::uint64_t msgs;
  std::uint64_t bytes;
  std::int64_t crit;
  LatencyPin lat;
};

constexpr Fingerprint kExpected[] = {
    {4, ce::BackendKind::Lci, false, 2.688176066, 1474, 993860329,
     2688176066,
     {253, 1015554.2332015811, 143652.57142857142, 6994987.0, 1008290.0,
      {253, 253, 253, 253, 253, 253, 253, 253, 442},
      {0.0, 1837851.0, 4061654.0, 0.0, 0.0, 42885743.0, 208149973.0,
       5949000.0, -3222782302.0}}},
    {4, ce::BackendKind::Lci, true, 2.7107365540000004, 1518, 993863233,
     2710732339,
     {253, 922149.41501976282, 138035.20000000001, 6985045.0,
      922149.41501976282,
      {253, 253, 253, 253, 253, 253, 253, 253, 442},
      {0.0, 0.0, 8213530.0, 0.0, 0.0, 16365577.0, 208724695.0, 5949000.0,
       -2785946108.0}}},
    {4, ce::BackendKind::Mpi, false, 2.7108171470000002, 1470, 993860065,
     2710817147,
     {253, 1104608.4584980237, 202524.44444444444, 7427413.333333333,
      1093463.2015810276,
      {253, 253, 253, 253, 253, 253, 253, 253, 442},
      {0.0, 2819750.0, 7312320.0, 0.0, 0.0, 13380938.0, 255952932.0,
       5949000.0, -2786479179.0}}},
    {4, ce::BackendKind::Mpi, true, 2.7108881970000001, 1518, 993863233,
     2710876682,
     {253, 1064866.976284585, 193003.51999999999, 7261388.7999999998,
      1064866.976284585,
      {253, 253, 253, 253, 253, 253, 253, 253, 442},
      {0.0, 0.0, 7476019.0, 0.0, 0.0, 8177313.0, 253758013.0, 5949000.0,
       -2785812500.0}}},
    {8, ce::BackendKind::Lci, false, 2.5041015840000003, 2674, 1145289249,
     2504101584,
     {453, 917409.51434878586, 221790.8148148148, 6601262.5454545459,
      638032.42604856507,
      {453, 453, 453, 453, 453, 453, 453, 453, 442},
      {120481070.0, 6076751.0, 23327201.0, 0.0, 0.0, 23274631.0,
       242426857.0, 9579000.0, 14594142.0}}},
    {8, ce::BackendKind::Lci, true, 2.6315685360000001, 2718, 1145292153,
     2631564321,
     {453, 1186545.0816777041, 207920.76190476189, 6644473.0,
      781233.9227373068,
      {453, 453, 453, 453, 453, 453, 453, 453, 442},
      {183605955.0, 0.0, 15445970.0, 0.0, 0.0, 60331730.0, 278121267.0,
       9579000.0, -865072482.0}}},
    {8, ce::BackendKind::Mpi, false, 2.5595929630000001, 2671, 1145289051,
     2559592963,
     {453, 868239.27593818982, 303104.0, 6619136.0, 605105.32229580579,
      {453, 453, 453, 453, 453, 453, 453, 453, 442},
      {111040207.0, 8159474.0, 26191948.0, 0.0, 0.0, 14593627.0,
       233327136.0, 9579000.0, -2476351671.0}}},
    {8, ce::BackendKind::Mpi, true, 2.4638495120000004, 2718, 1145292153,
     2463837997,
     {453, 1346475.5452538631, 303104.0, 7156531.2000000002,
      862215.72185430466,
      {453, 453, 453, 453, 453, 453, 453, 453, 442},
      {219369700.0, 0.0, 21337010.0, 0.0, 0.0, 17441087.0, 351805625.0,
       9579000.0, -1694485875.0}}},
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
    expect_latency(res.runtime_stats, fp.lat);
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
  EXPECT_EQ(res.tts_s, 3.1027538090000002);
  EXPECT_EQ(res.fabric_messages, 37176u);
  EXPECT_EQ(cancelled->value(), 15u);
  // Re-announced flows restart root_ts at the serving node, so the
  // recovered run's latencies pin the recovery legs as well.
  constexpr LatencyPin kCrashLatency = {
      536, 1778920.8376865671, 292677.81818181818, 17039360.0,
      1332744.1361940298,
      {536, 536, 536, 536, 536, 536, 536, 536, 464},
      {232218977.0, 6931735.0, 87198936.0, 0.0, 0.0, 135095968.0,
       492055953.0, 11172000.0, 4736598104.0}};
  expect_latency(res.runtime_stats, kCrashLatency);
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

// The LCI paths no row above reaches, each pinned on the 8-node Model
// run.  Captured before mlci, LciBackend and the runtime stopped
// allocating per message.
hicma::ExperimentConfig lci_row_config() {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = ce::BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  return cfg;
}

// Every mlci resource pool squeezed to 2: AMs, handshakes and Direct
// transfers hit Retry, and handshake receives are delegated to the
// communication thread (§5.3.3).
TEST(Fingerprint, LciBackPressureIsBitIdenticalToBaseline) {
  hicma::ExperimentConfig cfg = lci_row_config();
  cfg.lci.direct_slots = 2;
  cfg.lci.packet_pool_size = 2;
  cfg.lci.immediate_slots = 2;
  const auto res = hicma::run_tlr_cholesky(cfg);
  EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(res.tts_s, 2.504186448);
  EXPECT_EQ(res.fabric_messages, 2675u);
  EXPECT_EQ(res.events_fired, 16956u);
  EXPECT_GT(res.ce_stats.retries_delegated, 0u);
  EXPECT_EQ(res.ce_stats.retries_delegated, 20u);
}

// LCI's native one-sided put (§7): no handshake, remote completion
// through the device put handler.
TEST(Fingerprint, LciNativePutIsBitIdenticalToBaseline) {
  hicma::ExperimentConfig cfg = lci_row_config();
  cfg.ce.native_put = true;
  const auto res = hicma::run_tlr_cholesky(cfg);
  EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(res.tts_s, 2.6316856850000003);
  EXPECT_EQ(res.fabric_messages, 1310u);
  EXPECT_EQ(res.events_fired, 9870u);
}

// Buffered packets and the eager threshold raised to 1 MiB: most puts
// ride inside their handshake (§5.3.3).
TEST(Fingerprint, LciEagerPutsAreBitIdenticalToBaseline) {
  hicma::ExperimentConfig cfg = lci_row_config();
  cfg.lci.buffered_size = 1 << 20;
  cfg.ce.eager_put_max = 1 << 20;
  const auto res = hicma::run_tlr_cholesky(cfg);
  EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(res.tts_s, 2.5041675190000001);
  EXPECT_EQ(res.fabric_messages, 1461u);
  EXPECT_EQ(res.events_fired, 9180u);
  EXPECT_GT(res.ce_stats.eager_puts, 0u);
  EXPECT_EQ(res.ce_stats.eager_puts, 404u);
  EXPECT_EQ(res.ce_stats.puts_started, 453u);
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
  EXPECT_EQ(res.fabric_messages, 37697u);
  EXPECT_EQ(res.events_fired, 48827u);
  EXPECT_EQ(cancelled->value(), 1u);
}

}  // namespace
