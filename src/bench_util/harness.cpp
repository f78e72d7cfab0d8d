#include "bench_util/harness.hpp"

#include <cassert>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "des/engine.hpp"
#include "net/fabric.hpp"
#include "obs/artifact.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "amt/runtime.hpp"

namespace bench {

namespace {

// Scalar env readers: an unset or empty variable leaves `out` alone and
// returns false; any other value must parse whole, or they throw.

[[noreturn]] void reject_env(const char* name, const char* want,
                             const char* v) {
  throw std::invalid_argument(std::string(name) + " wants " + want +
                              ", got \"" + v + "\"");
}

/// True when a strto* call that set `end` consumed all of `v` and did not
/// overflow (errno cleared before the call).
bool parsed_whole(const char* v, const char* end) {
  return end != v && *end == '\0' && errno != ERANGE;
}

bool env_double(const char* name, double& out) {
  const char* v = std::getenv(name);
  if (!v || !*v) return false;
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v, &end);
  if (!parsed_whole(v, end) || !std::isfinite(d)) {
    reject_env(name, "a finite number", v);
  }
  out = d;
  return true;
}

/// A finite number of `unit`s, converted to simulated time; a value
/// whose product does not fit in des::Duration throws.
bool env_duration(const char* name, des::Duration unit, des::Duration& out) {
  double v = 0;
  if (!env_double(name, v)) return false;
  const std::optional<des::Duration> d = des::checked_duration(v, unit);
  if (!d) reject_env(name, "a duration that fits in simulated time",
                     std::getenv(name));
  out = *d;
  return true;
}

bool env_int(const char* name, int& out) {
  const char* v = std::getenv(name);
  if (!v || !*v) return false;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v, &end, 10);
  if (!parsed_whole(v, end) || n < INT_MIN || n > INT_MAX) {
    reject_env(name, "an integer", v);
  }
  out = static_cast<int>(n);
  return true;
}

bool env_u64(const char* name, std::uint64_t& out) {
  const char* v = std::getenv(name);
  if (!v || !*v) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 0);
  // strtoull negates a leading '-' instead of rejecting it.
  if (!parsed_whole(v, end) || std::strchr(v, '-') != nullptr) {
    reject_env(name, "a non-negative integer (decimal or 0x hex)", v);
  }
  out = n;
  return true;
}

/// Parses "node:start_ms:dur_ms" fault windows.
bool env_window(const char* name, int& node, des::Time& start,
                des::Duration& duration) {
  const char* v = std::getenv(name);
  if (!v || !*v) return false;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v, &end, 10);
  bool ok = end != v && *end == ':' && n >= INT_MIN && n <= INT_MAX;
  double ms[2] = {0, 0};
  for (int i = 0; ok && i < 2; ++i) {
    const char* field = end + 1;
    ms[i] = std::strtod(field, &end);
    ok = end != field && *end == (i == 0 ? ':' : '\0') && std::isfinite(ms[i]);
  }
  if (!ok || errno == ERANGE) reject_env(name, "node:start_ms:dur_ms", v);
  // The fabric adds start and duration, so the window's end must fit too.
  const std::optional<des::Time> t =
      des::checked_duration(ms[0], des::kMillisecond);
  const std::optional<des::Duration> d =
      des::checked_duration(ms[1], des::kMillisecond);
  if (!t || !d || !des::checked_duration(ms[0] + ms[1], des::kMillisecond)) {
    reject_env(name, "node:start_ms:dur_ms within simulated time", v);
  }
  node = static_cast<int>(n);
  start = *t;
  duration = *d;
  return true;
}

}  // namespace

Reps Reps::from_env() {
  Reps r;
  env_int("AMTLCE_REPS", r.total);
  env_int("AMTLCE_WARMUP", r.warmup);
  if (r.total < 1) r.total = 1;
  if (r.warmup < 0) r.warmup = 0;  // a negative warm-up discards nothing
  if (r.warmup >= r.total) r.warmup = r.total - 1;
  return r;
}

bool apply_fault_env(net::FabricConfig& cfg) {
  net::FaultConfig& f = cfg.faults;
  bool any = env_u64("AMTLCE_FAULT_SEED", f.seed);
  any |= env_double("AMTLCE_FAULT_DROP", f.drop_prob);
  any |= env_double("AMTLCE_FAULT_DUP", f.dup_prob);
  any |= env_double("AMTLCE_FAULT_CORRUPT", f.corrupt_prob);
  any |= env_double("AMTLCE_FAULT_SPIKE_PROB", f.spike_prob);
  any |= env_duration("AMTLCE_FAULT_SPIKE_US", des::kMicrosecond,
                      f.spike_max);
  any |= env_duration("AMTLCE_FAULT_JITTER_US", des::kMicrosecond,
                      f.jitter_max);
  any |= env_window("AMTLCE_FAULT_BROWNOUT", f.brownout_node,
                    f.brownout_start, f.brownout_duration);
  any |= env_window("AMTLCE_FAULT_STALL", f.stall_node, f.stall_start,
                    f.stall_duration);
  if (any) net::validate(cfg);  // fail loudly on out-of-range knobs
  return any;
}

bool reliable_from_env() {
  const char* v = std::getenv("AMTLCE_RELIABLE");
  if (!v || !*v) return false;
  const std::string s = v;
  return s != "0" && s != "off" && s != "false";
}

double mean_of(const Reps& reps, const std::function<double(int)>& measure) {
  double sum = 0;
  int counted = 0;
  for (int i = 0; i < reps.total; ++i) {
    const double v = measure(i);
    if (i >= reps.warmup) {
      sum += v;
      ++counted;
    }
  }
  return counted > 0 ? sum / counted : 0.0;
}

PingPongResult run_pingpong(ce::BackendKind backend,
                            const PingPongOptions& opts,
                            net::FabricConfig fabric, ce::CeConfig ce_cfg) {
  assert(opts.iterations >= 1 && "ping-pong needs at least one iteration");
  // Environment chaos knobs overlay whatever the caller configured.
  apply_fault_env(fabric);
  if (reliable_from_env()) ce_cfg.reliable.enabled = true;
  des::Engine eng;
  const auto tracer = obs::Tracer::attach_from_env(eng);
  net::Fabric fab(eng, opts.nodes, fabric);
  ce::CommWorld comm(fab, backend, ce_cfg);
  PingPongGraph graph(opts);
  amt::RuntimeConfig rt = amt::RuntimeConfig::light_costs();
  // §6.1.2: 128 cores; one for the communication thread, one more for the
  // LCI progress thread.
  rt.workers = 128 - 1 -
               (backend == ce::BackendKind::Lci && ce_cfg.progress_thread
                    ? 1
                    : 0);
  amt::Runtime runtime(eng, fab, comm, graph, rt);
  const des::Duration makespan = runtime.run();
  const amt::NodeStats agg = runtime.aggregate_stats();
  {
    // Fold this simulation's metrics (CE/fabric + runtime latency stages)
    // into the process-wide accumulator for AMTLCE_METRICS.
    obs::Recorder snap = comm.metrics_snapshot();
    amt::export_latency_metrics(agg, snap);
    metrics_accumulator().merge(snap);
  }

  PingPongResult res;
  res.tts_s = des::to_seconds(makespan);
  // Wire-volume accounting: the first round's fragments start co-located
  // with their tasks, so the window crosses the network once per iteration
  // *transition* — (iterations - 1) crossings per stream.  Signed math: a
  // single iteration moves nothing and reports zero bandwidth instead of
  // the unsigned-underflow garbage the old size_t expression produced.
  const double bytes = static_cast<double>(opts.total_bytes) *
                       opts.streams * (opts.iterations - 1);
  res.gbit_per_s = bytes * 8.0 / res.tts_s / 1e9;
  res.gflop_per_s = graph.total_flops() / res.tts_s / 1e9;
  res.latency = agg.latency;
  res.stages = agg.stages;
  res.crit = agg.crit;
  return res;
}

PingPongResult run_pingpong_series(const Reps& reps, ce::BackendKind backend,
                                   const PingPongOptions& opts,
                                   net::FabricConfig fabric,
                                   ce::CeConfig ce_cfg) {
  PingPongResult agg;
  int counted = 0;
  for (int i = 0; i < reps.total; ++i) {
    PingPongResult r = run_pingpong(backend, opts, fabric, ce_cfg);
    if (i < reps.warmup) continue;
    agg.gbit_per_s += r.gbit_per_s;
    agg.gflop_per_s += r.gflop_per_s;
    agg.tts_s += r.tts_s;
    agg.latency.merge(r.latency);
    agg.stages.merge(r.stages);
    agg.crit.merge(r.crit);
    ++counted;
  }
  if (counted > 0) {
    agg.gbit_per_s /= counted;
    agg.gflop_per_s /= counted;
    agg.tts_s /= counted;
  }
  return agg;
}

double netpipe_gbit(std::size_t fragment_bytes, std::size_t total_bytes,
                    net::FabricConfig fabric) {
  des::Engine eng;
  net::Fabric fab(eng, 2, fabric);
  const auto count = total_bytes / fragment_bytes;
  if (count == 0) return 0.0;  // fragment larger than the total volume
  des::Time first = 0;
  des::Time last = 0;
  std::uint64_t received = 0;
  fab.nic(1).set_deliver_handler([&](net::Message&&) {
    if (received == 0) first = eng.now();
    ++received;
    last = eng.now();
  });
  // Small per-message host overhead, like the NetPIPE inner loop.
  des::Time inject = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    eng.schedule_at(inject, [&fab, fragment_bytes]() {
      net::Message m;
      m.src = 0;
      m.dst = 1;
      m.wire_bytes = fragment_bytes + 64;
      fab.nic(0).send(std::move(m));
    });
    inject += 500;  // 0.5 us software pacing per message
  }
  eng.run();
  if (received == 0) return 0.0;
  if (received == 1) {
    // Single message: no arrival-to-arrival window exists, so fall back to
    // injection-to-arrival time (includes the one-way latency — the
    // steady-state pipeline rate is undefined with one sample).
    return static_cast<double>(fragment_bytes) * 8.0 / des::to_seconds(last) /
           1e9;
  }
  // Steady-state rate: the window [first arrival, last arrival] contains
  // the payloads of messages 2..N.
  const double bytes = static_cast<double>(fragment_bytes) *
                       static_cast<double>(received - 1);
  return bytes * 8.0 / des::to_seconds(last - first) / 1e9;
}

obs::Recorder& metrics_accumulator() {
  static obs::Recorder rec;
  return rec;
}

bool export_metrics_env() {
  const char* path = std::getenv("AMTLCE_METRICS");
  if (path == nullptr || *path == '\0') return false;
  return obs::write_file(path, obs::metrics_json(metrics_accumulator()),
                         "metrics");
}

std::string critical_path_line(const amt::CriticalPath& cp) {
  if (!cp.seen) return "critical path: (no tasks observed)";
  char buf[192];
  std::snprintf(
      buf, sizeof buf,
      "critical path: %u tasks, %.3f ms = compute %.3f + comm %.3f + "
      "overhead %.3f ms, ends at task %d(%d,%d,%d)",
      cp.sums.tasks, static_cast<double>(cp.sums.total()) / 1e6,
      static_cast<double>(cp.sums.compute) / 1e6,
      static_cast<double>(cp.sums.comm) / 1e6,
      static_cast<double>(cp.sums.overhead) / 1e6, cp.last.cls, cp.last.i,
      cp.last.j, cp.last.k);
  return buf;
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::add_row(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

Table::~Table() {
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    width[c] = columns_[c].size();
    for (const auto& row : rows_) {
      if (c < row.size()) width[c] = std::max(width[c], row[c].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(width[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s  ", std::string(width[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);

  if (const char* prefix = std::getenv("AMTLCE_CSV")) {
    std::string name = title_;
    for (auto& ch : name) {
      if (ch == ' ' || ch == '/' || ch == ',') ch = '_';
    }
    // RFC-4180-style quoting for cells containing separators or quotes.
    const auto escape = [](const std::string& cell) -> std::string {
      if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
      std::string quoted = "\"";
      for (const char ch : cell) {
        if (ch == '"') quoted += '"';
        quoted += ch;
      }
      quoted += '"';
      return quoted;
    };
    std::string csv;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      csv += escape(columns_[c]) + (c + 1 < columns_.size() ? "," : "\n");
    }
    // Every data line has exactly one field per header column: short rows
    // are padded with empty cells, long rows keep their extra cells.
    for (const auto& row : rows_) {
      const std::size_t n = std::max(row.size(), columns_.size());
      for (std::size_t c = 0; c < n; ++c) {
        if (c > 0) csv += ',';
        if (c < row.size()) csv += escape(row[c]);
      }
      csv += '\n';
    }
    obs::write_file(std::string(prefix) + name + ".csv", csv, "csv");
  }
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string human_bytes(std::size_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof buf, "%.5g MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof buf, "%.5g KiB",
                  static_cast<double>(bytes) / (1 << 10));
  }
  return buf;
}

}  // namespace bench
