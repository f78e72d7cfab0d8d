// End-to-end checks for the time-resolved observability stack: the
// timeline sampler must not perturb the pinned fingerprints and must
// render byte-identically for identical runs; a run that fails closed
// must leave a complete post-mortem bundle; and the end-of-run metrics
// export must carry the fabric, link, and failure-detector counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "hicma/driver.hpp"
#include "obs/stats.hpp"
#include "json_check.hpp"

namespace {

using ce::BackendKind;

hicma::ExperimentConfig fingerprint_config(BackendKind kind) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = kind;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Timeline::attach_from_env suffixes repeat attachments in one process
// with ".1", ".2", ... on a process-global counter, so the file a given
// run wrote is "base" or "base.<k>"; with unique bases per run exactly
// one candidate exists.
std::string find_written(const std::string& base) {
  std::ifstream probe(base);
  if (probe.good()) return base;
  for (int k = 1; k < 64; ++k) {
    const std::string candidate = base + "." + std::to_string(k);
    std::ifstream c(candidate);
    if (c.good()) return candidate;
  }
  return {};
}

struct TimelinePin {
  BackendKind backend;
  double tts_s;
  std::uint64_t msgs;
  std::uint64_t bytes;
};

// The sampler-off values these rows pin live in fingerprint_test.cpp;
// a sampler-on run must reproduce them exactly (the sampler is an
// engine hook, never an event).
constexpr TimelinePin kPins[] = {
    {BackendKind::Lci, 2.5041015840000003, 2674, 1145289249},
    {BackendKind::Mpi, 2.5595929630000001, 2671, 1145289051},
};

TEST(TimelineIntegration, SamplerPreservesFingerprintsAndIsDeterministic) {
  for (const TimelinePin& pin : kPins) {
    const char* label = pin.backend == BackendKind::Lci ? "lci" : "mpi";
    SCOPED_TRACE(::testing::Message() << "backend=" << label);
    std::string written[2];
    for (int run = 0; run < 2; ++run) {
      const std::string base = std::string("obs_tl_") + label + "_" +
                               std::to_string(run) + ".json";
      std::remove(base.c_str());
      ASSERT_EQ(::setenv("AMTLCE_TIMELINE", base.c_str(), 1), 0);
      const auto res = hicma::run_tlr_cholesky(fingerprint_config(pin.backend));
      ::unsetenv("AMTLCE_TIMELINE");
      // Bit-identical to the sampler-off pins: exact equality intended.
      EXPECT_EQ(res.tts_s, pin.tts_s);
      EXPECT_EQ(res.fabric_messages, pin.msgs);
      EXPECT_EQ(res.fabric_bytes, pin.bytes);
      written[run] = find_written(base);
      ASSERT_FALSE(written[run].empty()) << "no timeline written for " << base;
    }
    const std::string a = slurp(written[0]);
    const std::string b = slurp(written[1]);
    ASSERT_FALSE(a.empty());
    // Same seed, same schedule: the whole delta-encoded timeline must
    // render byte-identically run over run.
    EXPECT_EQ(a, b);
    EXPECT_TRUE(test_support::json_parse_ok(a));
    EXPECT_NE(a.find("\"des.qdepth\""), std::string::npos);
    EXPECT_NE(a.find("\"amt.ready\""), std::string::npos);
    std::remove(written[0].c_str());
    std::remove(written[1].c_str());
  }
}

TEST(PostmortemIntegration, NoSurvivorsRunEmitsCompleteBundle) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.backend = BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  // Ground-truth recovery (no failure detector): every death is
  // observed instantly, so when the last node fail-stops the recovery
  // pass finds an empty survivor set.  With an FD, nobody survives to
  // deliver the final verdict and the run drains to ErrDeadlock instead.
  cfg.rt.ft.enabled = true;
  // Every node fail-stops mid-run, no restarts: the tolerant runtime
  // must fail closed with ErrNoSurvivors and the driver must dump the
  // bundle.
  for (int n = 0; n < cfg.nodes; ++n) {
    cfg.fabric.faults.crashes.push_back(
        net::CrashEvent{n, 10'000'000 * (n + 1), 0});
  }

  const std::string path = "obs_postmortem_test.json";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("AMTLCE_POSTMORTEM", path.c_str(), 1), 0);
  const auto res = hicma::run_tlr_cholesky(cfg);
  ::unsetenv("AMTLCE_POSTMORTEM");

  ASSERT_EQ(res.run_status, amt::RunStatus::ErrNoSurvivors);
  const std::string bundle = slurp(path);
  ASSERT_FALSE(bundle.empty()) << "no post-mortem bundle at " << path;
  EXPECT_TRUE(test_support::json_parse_ok(bundle));
  // The bundle must carry all four context sections plus the rings, and
  // the rings must hold the ground-truth crash records.
  EXPECT_NE(bundle.find("\"reason\": \"err_no_survivors\""),
            std::string::npos);
  EXPECT_NE(bundle.find("\"rings\""), std::string::npos);
  EXPECT_NE(bundle.find("\"config\""), std::string::npos);
  EXPECT_NE(bundle.find("\"crash_schedule\""), std::string::npos);
  EXPECT_NE(bundle.find("\"metrics\""), std::string::npos);
  EXPECT_NE(bundle.find("\"crash\""), std::string::npos);
  EXPECT_NE(bundle.find("\"recovery\""), std::string::npos);
  EXPECT_NE(bundle.find("\"run_status\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsExportIntegration, FabricAndLinkCountersLandInMetrics) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  // Expanse-style fat tree shrunk to 4-node leaves so an 8-node run
  // spans two leaves and cross-leaf traffic exercises the boundary-tier
  // link counters.
  cfg.fabric = net::expanse_fat_tree_config();
  cfg.fabric.nodes_per_switch = 4;
  cfg.fabric.topology.levels[0].radix = 4;
  cfg.fabric.topology.levels[0].uplinks = 1;
  cfg.rt.ft.enabled = true;  // the tolerant runtime drives (and stops) the FD
  cfg.ce.fd.enabled = true;
  cfg.ce.reliable.enabled = true;

  const auto res = hicma::run_tlr_cholesky(cfg);
  ASSERT_EQ(res.run_status, amt::RunStatus::Ok);

  const auto counter = [&res](const char* name) -> std::uint64_t {
    const obs::Counter* const c = res.metrics.find_counter(name);
    return c ? c->value() : 0;
  };
  // Frame totals mirror the fabric's own counters exactly.
  EXPECT_EQ(counter("net.msgs"), res.fabric_messages);
  EXPECT_EQ(counter("net.bytes"), res.fabric_bytes);
  // Everything sent on a lossless fabric is delivered.
  EXPECT_EQ(counter("net.delivered_msgs"), res.fabric_messages);
  EXPECT_GT(counter("net.delivered_bytes"), 0u);
  // Explicit-link routing: the boundary-tier counters must be present
  // and consistent (tier-0 up traffic is cross-leaf traffic, which an
  // 8-node 2-leaf run necessarily has).
  EXPECT_GT(counter("net.link.t0.up_msgs"), 0u);
  EXPECT_GT(counter("net.link.t0.up_bytes"), 0u);
  EXPECT_GT(counter("net.link.t0.down_bytes"), 0u);
  // The failure detector ran (enabled, no crashes): its heartbeat
  // counter must land in the same recorder the driver exports.
  EXPECT_GT(counter("ce.fd.heartbeats"), 0u);
  // And the whole set renders into the AMTLCE_METRICS JSON document.
  const std::string json = obs::metrics_json(res.metrics);
  EXPECT_TRUE(test_support::json_parse_ok(json));
  EXPECT_NE(json.find("\"net.link.t0.up_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"ce.fd.heartbeats\""), std::string::npos);
}

// Full counter map of the end-of-run export for a run that drives every
// counting layer: reliability (drops, dups, corruption, spikes, a
// brownout, a stall), the failure detector and lineage recovery (one
// crash).  The map is pinned name by name, so a change to how counters
// are kept or exported must reproduce the exact key set and values.
using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap counters_of(const obs::Recorder& rec) {
  CounterMap out;
  for (const auto& [name, c] : rec.counters()) out.emplace(name, c.value());
  return out;
}

hicma::ExperimentConfig pinned_chaos_config(BackendKind kind) {
  hicma::ExperimentConfig cfg = fingerprint_config(kind);
  cfg.rt.ft.enabled = true;
  cfg.ce.fd.enabled = true;
  cfg.ce.reliable.enabled = true;
  net::FaultConfig& f = cfg.fabric.faults;
  f.seed = 0x9E11;
  f.drop_prob = 0.005;
  f.dup_prob = 0.005;
  f.corrupt_prob = 0.005;
  f.jitter_max = 1 * des::kMicrosecond;
  f.spike_prob = 0.005;
  f.spike_max = 20 * des::kMicrosecond;
  f.brownout_node = 2;
  f.brownout_start = 600 * des::kMillisecond;
  f.brownout_duration = 2 * des::kMillisecond;
  f.stall_node = 4;
  f.stall_start = 900 * des::kMillisecond;
  f.stall_duration = 1 * des::kMillisecond;
  f.crashes.push_back(net::CrashEvent{3, 800 * des::kMillisecond, 0});
  return cfg;
}

// Export-table names these runs leave at zero (and so absent from the
// maps): net.fault.undeliverable, ce.rel.err_unhandled,
// ce.fd.false_suspects, ce.fd.revivals and ce.peer_failed_cancels.
TEST(MetricsExportIntegration, PinnedCounterMapsUnderChaosAndCrash) {
  const struct {
    BackendKind kind;
    CounterMap counters;
  } pins[] = {
    {BackendKind::Lci, {
      {"ce.fd.dead", 7},
      {"ce.fd.heartbeats", 26254},
      {"ce.fd.hints", 2},
      {"ce.fd.suspects", 7},
      {"ce.rel.acks", 4001},
      {"ce.rel.corrupt", 36},
      {"ce.rel.data", 2913},
      {"ce.rel.dups", 1093},
      {"ce.rel.nacks", 16},
      {"ce.rel.peer_dead_fails", 2},
      {"ce.rel.retransmits", 1159},
      {"ce.rel.timeouts", 3},
      {"net.bytes", 1504541796},
      {"net.delivered_bytes", 1504526057},
      {"net.delivered_msgs", 34167},
      {"net.fault.brownout_drops", 14},
      {"net.fault.corruptions", 163},
      {"net.fault.crash_cancelled", 1},
      {"net.fault.crash_drops", 154},
      {"net.fault.crashes", 1},
      {"net.fault.dropped_bytes", 15739},
      {"net.fault.drops", 344},
      {"net.fault.dup_bytes", 2524058},
      {"net.fault.dups", 168},
      {"net.fault.spikes", 180},
      {"net.fault.stalled_msgs", 1},
      {"net.msgs", 34511},
    }},
    {BackendKind::Mpi, {
      {"ce.fd.dead", 7},
      {"ce.fd.heartbeats", 26319},
      {"ce.fd.hints", 2},
      {"ce.fd.suspects", 7},
      {"ce.rel.acks", 3637},
      {"ce.rel.corrupt", 33},
      {"ce.rel.data", 2914},
      {"ce.rel.dups", 728},
      {"ce.rel.nacks", 11},
      {"ce.rel.peer_dead_fails", 2},
      {"ce.rel.retransmits", 792},
      {"ce.rel.timeouts", 3},
      {"net.bytes", 1449694918},
      {"net.delivered_bytes", 1444807339},
      {"net.delivered_msgs", 33496},
      {"net.fault.brownout_drops", 14},
      {"net.fault.corruptions", 163},
      {"net.fault.crash_cancelled", 1},
      {"net.fault.crash_drops", 154},
      {"net.fault.crashes", 1},
      {"net.fault.dropped_bytes", 4887579},
      {"net.fault.drops", 340},
      {"net.fault.dup_bytes", 700233},
      {"net.fault.dups", 163},
      {"net.fault.spikes", 179},
      {"net.fault.stalled_msgs", 1},
      {"net.msgs", 33836},
    }},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "backend=" << ce::backend_name(pin.kind));
    const auto res = hicma::run_tlr_cholesky(pinned_chaos_config(pin.kind));
    ASSERT_EQ(res.run_status, amt::RunStatus::Ok);
    EXPECT_EQ(counters_of(res.metrics), pin.counters);
  }
}

}  // namespace
