// Flow-trace end-to-end check: runs a small 4-node model-mode TLR
// Cholesky with tracing enabled, then validates the emitted Chrome trace:
//   * the file is one well-formed JSON value,
//   * it contains cross-node flow events ("activate"/"getdata"/"put"
//     legs), and every flow finish (ph:"f") has a matching start (ph:"s")
//     with the same id,
//   * nothing was dropped at the default event cap
//     (otherData.droppedEvents == 0).
//
// Usage: flow_trace_check <trace-output-path>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "hicma/driver.hpp"
#include "json_check.hpp"

namespace {

/// Extracts the numeric value of `"key":<digits>` following `pos`.
/// Returns false when the key does not appear before the event's closing
/// brace.
bool field_u64(const std::string& text, std::size_t pos, const char* key,
               unsigned long long& out) {
  const std::size_t brace = text.find('}', pos);
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = text.find(needle, pos);
  if (at == std::string::npos || (brace != std::string::npos && at > brace)) {
    return false;
  }
  out = std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s trace.json\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  ::setenv("AMTLCE_TRACE", path.c_str(), 1);

  hicma::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.backend = ce::BackendKind::Lci;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 24000;
  cfg.tlr.nb = 2400;  // nt = 10: small, but plenty of remote flows
  const auto res = hicma::run_tlr_cholesky(cfg);
  ::unsetenv("AMTLCE_TRACE");
  if (res.runtime_stats.data_arrivals == 0) {
    std::fprintf(stderr, "FAIL: run produced no remote deliveries\n");
    return 1;
  }

  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "FAIL: trace file %s not written\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  if (!test_support::json_parse_ok(text)) {
    std::fprintf(stderr, "FAIL: malformed JSON (%zu bytes)\n", text.size());
    return 1;
  }
  unsigned long long dropped = ~0ull;
  const std::size_t other = text.find("\"droppedEvents\":");
  if (other == std::string::npos ||
      !field_u64(text, other, "droppedEvents", dropped) || dropped != 0) {
    std::fprintf(stderr, "FAIL: droppedEvents missing or nonzero (%llu)\n",
                 dropped);
    return 1;
  }

  // Collect flow ids by phase and check f ⊆ s.
  std::set<unsigned long long> starts, finishes;
  for (std::size_t pos = text.find("\"ph\":\"s\""); pos != std::string::npos;
       pos = text.find("\"ph\":\"s\"", pos + 1)) {
    unsigned long long id = 0;
    if (!field_u64(text, pos, "id", id)) {
      std::fprintf(stderr, "FAIL: flow start without id at %zu\n", pos);
      return 1;
    }
    starts.insert(id);
  }
  for (std::size_t pos = text.find("\"ph\":\"f\""); pos != std::string::npos;
       pos = text.find("\"ph\":\"f\"", pos + 1)) {
    unsigned long long id = 0;
    if (!field_u64(text, pos, "id", id)) {
      std::fprintf(stderr, "FAIL: flow finish without id at %zu\n", pos);
      return 1;
    }
    finishes.insert(id);
  }
  if (starts.empty() || finishes.empty()) {
    std::fprintf(stderr, "FAIL: no flow events (starts=%zu finishes=%zu)\n",
                 starts.size(), finishes.size());
    return 1;
  }
  for (const unsigned long long id : finishes) {
    if (!starts.contains(id)) {
      std::fprintf(stderr, "FAIL: flow finish id %llu has no start\n", id);
      return 1;
    }
  }
  for (const char* name : {"activate", "getdata", "data", "put"}) {
    const std::string needle =
        std::string("\"cat\":\"flow\",\"id\":");  // all flows carry this
    (void)needle;
    if (text.find(std::string("\"name\":\"") + name + "\"") ==
        std::string::npos) {
      std::fprintf(stderr, "FAIL: no \"%s\" flow events\n", name);
      return 1;
    }
  }

  std::printf(
      "OK   %s: %zu flow starts, %zu finishes, 0 dropped (%zu bytes)\n",
      path.c_str(), starts.size(), finishes.size(), text.size());
  std::remove(path.c_str());
  return 0;
}
