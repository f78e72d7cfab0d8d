// Byte pins for every JSON artifact a run writes: the Chrome trace, the
// timeline and the metrics export of a small traced TLR run, and the
// post-mortem bundle of a run that fails closed.  Each artifact is hashed
// (FNV-1a 64) and compared with the hash of the committed reference, so a
// change to how the artifacts are encoded or written must reproduce them
// byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "hicma/driver.hpp"
#include "obs/stats.hpp"

namespace {

using ce::BackendKind;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Tracer and Timeline number repeat attachments in one process "<path>.1",
// "<path>.2", ...; with a base unique to this test exactly one exists.
std::string find_written(const std::string& base) {
  if (std::ifstream(base).good()) return base;
  for (int k = 1; k < 64; ++k) {
    const std::string candidate = base + "." + std::to_string(k);
    if (std::ifstream(candidate).good()) return candidate;
  }
  return {};
}

hicma::ExperimentConfig small_config() {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.backend = BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 24000;
  cfg.tlr.nb = 2400;
  return cfg;
}

TEST(ArtifactPin, TracedTlrRunWritesPinnedTraceTimelineAndMetrics) {
  const std::string trace_base = "artifact_pin_trace.json";
  const std::string timeline_base = "artifact_pin_timeline.json";
  ASSERT_EQ(::setenv("AMTLCE_TRACE", trace_base.c_str(), 1), 0);
  ASSERT_EQ(::setenv("AMTLCE_TIMELINE", timeline_base.c_str(), 1), 0);
  const auto res = hicma::run_tlr_cholesky(small_config());
  ::unsetenv("AMTLCE_TRACE");
  ::unsetenv("AMTLCE_TIMELINE");
  ASSERT_EQ(res.run_status, amt::RunStatus::Ok);

  const std::string trace_path = find_written(trace_base);
  const std::string timeline_path = find_written(timeline_base);
  ASSERT_FALSE(trace_path.empty()) << "no trace written for " << trace_base;
  ASSERT_FALSE(timeline_path.empty())
      << "no timeline written for " << timeline_base;
  const std::string trace = slurp(trace_path);
  const std::string timeline = slurp(timeline_path);
  const std::string metrics = obs::metrics_json(res.metrics);
  std::remove(trace_path.c_str());
  std::remove(timeline_path.c_str());

  EXPECT_EQ(trace.size(), 661711u);
  EXPECT_EQ(fnv1a64(trace), 6011140519920786338ull);
  EXPECT_EQ(timeline.size(), 13887u);
  EXPECT_EQ(fnv1a64(timeline), 9810095484060580237ull);
  EXPECT_EQ(metrics.size(), 3131u);
  EXPECT_EQ(fnv1a64(metrics), 1192348657146108099ull);
}

// The run of PostmortemIntegration.NoSurvivorsRunEmitsCompleteBundle:
// every node fail-stops under ground-truth recovery.
TEST(ArtifactPin, NoSurvivorsRunWritesPinnedPostmortemBundle) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.backend = BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  cfg.rt.ft.enabled = true;
  for (int n = 0; n < cfg.nodes; ++n) {
    cfg.fabric.faults.crashes.push_back(
        net::CrashEvent{n, 10'000'000 * (n + 1), 0});
  }
  const std::string path = "artifact_pin_postmortem.json";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("AMTLCE_POSTMORTEM", path.c_str(), 1), 0);
  const auto res = hicma::run_tlr_cholesky(cfg);
  ::unsetenv("AMTLCE_POSTMORTEM");
  ASSERT_EQ(res.run_status, amt::RunStatus::ErrNoSurvivors);
  const std::string bundle = slurp(path);
  std::remove(path.c_str());

  EXPECT_EQ(bundle.size(), 27809u);
  EXPECT_EQ(fnv1a64(bundle), 7811880031426162033ull);
}

}  // namespace
