// Benchmark harness shared by the figure-reproduction binaries.
//
// Methodology follows paper §6.1.3: each measurement runs several
// executions in succession, discards the first (warm-up) ones, and
// reports the mean of the rest.  In a deterministic simulation repeats
// differ only via the seed, so the defaults are lighter than the paper's
// 18/3 — override with AMTLCE_REPS / AMTLCE_WARMUP env vars to match.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "amt/config.hpp"
#include "ce/world.hpp"
#include "net/config.hpp"
#include "bench_util/pingpong_graph.hpp"

namespace bench {

/// Repetition policy (env-overridable: AMTLCE_REPS, AMTLCE_WARMUP).
/// Values are clamped sane: total >= 1, 0 <= warmup < total.  A value
/// that is not a whole integer throws std::invalid_argument.
struct Reps {
  int total = 3;
  int warmup = 1;
  static Reps from_env();
};

/// Mean over repeated measurements with warm-up discard.
double mean_of(const Reps& reps, const std::function<double(int)>& measure);

/// Overlays AMTLCE_FAULT_* environment knobs onto `cfg.faults` so any
/// bench binary can run under an injected fault schedule:
///   AMTLCE_FAULT_SEED        fault RNG seed (decimal or 0x hex)
///   AMTLCE_FAULT_DROP        drop probability in [0, 1]
///   AMTLCE_FAULT_DUP         duplication probability
///   AMTLCE_FAULT_CORRUPT     bit-flip corruption probability
///   AMTLCE_FAULT_SPIKE_PROB  latency-spike probability
///   AMTLCE_FAULT_SPIKE_US    max spike magnitude, microseconds
///   AMTLCE_FAULT_JITTER_US   max per-message jitter, microseconds
///   AMTLCE_FAULT_BROWNOUT    node:start_ms:dur_ms link brownout window
///   AMTLCE_FAULT_STALL       node:start_ms:dur_ms NIC stall window
/// A value that does not parse whole, and a merged config that fails
/// validation, throw std::invalid_argument naming the knob.
/// Returns true when any override was applied.
bool apply_fault_env(net::FabricConfig& cfg);

/// True when AMTLCE_RELIABLE requests the end-to-end reliability sublayer
/// (unset, "0", "off", "false" => false; anything else => true).
bool reliable_from_env();

struct PingPongResult {
  double gbit_per_s = 0;   ///< fragment payload bandwidth
  double gflop_per_s = 0;  ///< task-body compute rate (overlap benchmark)
  double tts_s = 0;
  /// Per-flow latency distribution (hop + e2e) aggregated over all nodes.
  amt::LatencyStats latency;
  /// Lifecycle-stage decomposition of the e2e path (telescoping stages).
  amt::StageLats stages;
  /// Longest weighted dependency chain across the run.
  amt::CriticalPath crit;
};

/// Runs the §6.2/§6.3 ping-pong graph on a fresh 2..N-node cluster.
/// Honors AMTLCE_TRACE (one Chrome-trace file per simulation).
PingPongResult run_pingpong(ce::BackendKind backend,
                            const PingPongOptions& opts,
                            net::FabricConfig fabric = net::expanse_config(),
                            ce::CeConfig ce_cfg = {});

/// run_pingpong over a full repetition series: scalar results are the mean
/// of the post-warm-up runs, latency histograms are merged across them.
PingPongResult run_pingpong_series(
    const Reps& reps, ce::BackendKind backend, const PingPongOptions& opts,
    net::FabricConfig fabric = net::expanse_config(), ce::CeConfig ce_cfg = {});

/// Hardware-only ping-pong ceiling (the NetPIPE role): windowed raw
/// fabric transfers of `fragment` bytes, no runtime, no backend.
double netpipe_gbit(std::size_t fragment_bytes,
                    std::size_t total_bytes = 256ull << 20,
                    net::FabricConfig fabric = net::expanse_config());

/// Process-wide metrics accumulator: run_pingpong merges each
/// simulation's obs::Recorder snapshot here (the figure benches do the
/// same with ExperimentResult::metrics), so one AMTLCE_METRICS dump can
/// cover a whole sweep.
obs::Recorder& metrics_accumulator();

/// When AMTLCE_METRICS names a path, writes obs::metrics_json() of the
/// accumulator there (overwritten on every call — call last).  Returns
/// true when a file was written.
bool export_metrics_env();

/// One-line critical-path breakdown for reports, e.g.
///   "critical path: 42 tasks, 12.345 ms = compute 8.000 + comm 3.500 +
///    overhead 0.845 ms, ends at task 2(5,3,1)"
/// Deterministic: same simulation seed, byte-identical line.
std::string critical_path_line(const amt::CriticalPath& cp);

/// Aligned table output: header once, then add_row per line; also emits
/// a CSV copy next to stdout when AMTLCE_CSV is set to a path prefix.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);
  void add_row(const std::vector<std::string>& cells);
  ~Table();

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double v, int precision = 2);
std::string human_bytes(std::size_t bytes);

}  // namespace bench
