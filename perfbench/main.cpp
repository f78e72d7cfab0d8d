// perfbench: end-to-end and per-layer host cost of the Model-mode TLR
// Cholesky stack (des, net, mlci/mmpi, ce with reliable/FD, amt, hicma,
// obs), measured from outside the program.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke]
//
// Each workload builds the stack hicma::run_tlr_cholesky builds and runs
// it repeatedly until --seconds have passed (at least twice).  With
// --trace 0 every repeat is untraced and the end-to-end metrics are
// printed.  With --trace 1 untraced and traced repeats alternate and the
// per-layer metrics are printed; a traced repeat wraps the task graph in
// a counting decorator and chains a pass-through net::LinkShim over every
// NIC, and times the coarse calls with steady_clock spans whose
// calibrated cost is subtracted.  --smoke shrinks the problem so every
// workload finishes in well under a second.
//
// Every repeat is checked (run status, task and frame conservation,
// clamped schedules, FD verdicts on crash-free runs, and determinism of
// TTS, frames and events across repeats).  The last line of stdout is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "amt/runtime.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/rng.hpp"
#include "hicma/driver.hpp"
#include "hicma/tlr_cholesky.hpp"
#include "net/fabric.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stats.hpp"

// ---------------------------------------------------------------------------
// Allocation and span accounting.  The simulator runs on one OS thread, so
// plain globals suffice; they are zero-initialized before any allocation.

namespace {

/// Where host work is attributed.  Allocations and span time land in the
/// layer whose span (or scope) is innermost; everything else is kRest.
enum Layer : int {
  kRest = 0,
  kHicma,       ///< inside a TaskGraphDef call
  kNetSend,     ///< inside Nic::send (the shim chain and the fabric)
  kRelDeliver,  ///< inside the inner shims' shim_deliver (reliable/FD)
  kCalib,       ///< empty spans timed to calibrate the span cost
  kNumLayers
};

struct LayerTally {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t spans = 0;
  std::uint64_t self_ns = 0;  ///< span time minus nested spans
};

LayerTally g_tally[kNumLayers];
int g_layer = kRest;
std::uint64_t g_child_ns = 0;  ///< time of spans nested in the open span

void* counted_alloc(std::size_t n) {
  LayerTally& t = g_tally[g_layer];
  ++t.allocs;
  t.bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  LayerTally& t = g_tally[g_layer];
  ++t.allocs;
  t.bytes += n;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Attributes allocations to a layer without reading the clock (the cheap
/// graph calls: 20-40M per run).
class LayerScope {
 public:
  explicit LayerScope(int layer) : prev_(g_layer) { g_layer = layer; }
  ~LayerScope() { g_layer = prev_; }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  int prev_;
};

/// Attributes allocations and exclusive (self) time to a layer.
class Span {
 public:
  explicit Span(int layer)
      : layer_(layer), prev_(g_layer), outer_child_ns_(g_child_ns) {
    g_layer = layer;
    g_child_ns = 0;
    t0_ = now_ns();
  }
  ~Span() {
    const std::uint64_t d = now_ns() - t0_;
    LayerTally& t = g_tally[layer_];
    ++t.spans;
    t.self_ns += d - std::min(d, g_child_ns);
    g_child_ns = outer_child_ns_ + d;
    g_layer = prev_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int layer_;
  int prev_;
  std::uint64_t outer_child_ns_;
  std::uint64_t t0_ = 0;
};

void reset_tallies() {
  for (LayerTally& t : g_tally) t = LayerTally{};
  g_child_ns = 0;
}

/// Cost of one empty span: `inside` is what a span measures of itself
/// (subtracted from every span's self time), `total` what it adds to the
/// run (subtracted from the traced wall time).
struct SpanCost {
  double inside_ns = 0;
  double total_ns = 0;
};

SpanCost calibrate_span_cost() {
  constexpr int kBatches = 7;
  constexpr int kPerBatch = 100000;
  std::vector<double> inside;
  std::vector<double> total;
  for (int b = 0; b < kBatches; ++b) {
    g_tally[kCalib] = LayerTally{};
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      Span s(kCalib);
    }
    const std::uint64_t t1 = now_ns();
    inside.push_back(static_cast<double>(g_tally[kCalib].self_ns) / kPerBatch);
    total.push_back(static_cast<double>(t1 - t0) / kPerBatch);
  }
  std::sort(inside.begin(), inside.end());
  std::sort(total.begin(), total.end());
  g_tally[kCalib] = LayerTally{};
  return {inside[kBatches / 2], total[kBatches / 2]};
}

// ---------------------------------------------------------------------------
// Layer probes: a TaskGraphDef decorator (hicma) and a LinkShim (net).

struct GraphCalls {
  std::uint64_t num_inputs = 0;
  std::uint64_t num_outputs = 0;
  std::uint64_t rank_of = 0;
  std::uint64_t successors = 0;
  std::uint64_t priority = 0;
  std::uint64_t execute = 0;
  std::uint64_t initial_tasks = 0;
  std::uint64_t total_tasks = 0;

  std::uint64_t sum() const {
    return num_inputs + num_outputs + rank_of + successors + priority +
           execute + initial_tasks + total_tasks;
  }
};

/// Counts every call into the graph; times the coarse ones (execute,
/// successors, initial_tasks) and only counts the cheap ones.
class CountingGraph final : public amt::TaskGraphDef {
 public:
  explicit CountingGraph(amt::TaskGraphDef& inner) : inner_(inner) {}

  int num_inputs(const amt::TaskKey& t) const override {
    ++calls_.num_inputs;
    LayerScope s(kHicma);
    return inner_.num_inputs(t);
  }
  int num_outputs(const amt::TaskKey& t) const override {
    ++calls_.num_outputs;
    LayerScope s(kHicma);
    return inner_.num_outputs(t);
  }
  int rank_of(const amt::TaskKey& t) const override {
    ++calls_.rank_of;
    LayerScope s(kHicma);
    return inner_.rank_of(t);
  }
  void successors(const amt::TaskKey& t, int flow,
                  std::vector<amt::Dep>& out) const override {
    ++calls_.successors;
    Span s(kHicma);
    inner_.successors(t, flow, out);
  }
  double priority(const amt::TaskKey& t) const override {
    ++calls_.priority;
    LayerScope s(kHicma);
    return inner_.priority(t);
  }
  des::Duration execute(const amt::TaskKey& t,
                        amt::RunContext& ctx) override {
    ++calls_.execute;
    Span s(kHicma);
    return inner_.execute(t, ctx);
  }
  void initial_tasks(int rank, std::vector<amt::TaskKey>& out) const override {
    ++calls_.initial_tasks;
    Span s(kHicma);
    inner_.initial_tasks(rank, out);
  }
  std::uint64_t total_tasks() const override {
    ++calls_.total_tasks;
    LayerScope s(kHicma);
    return inner_.total_tasks();
  }

  const GraphCalls& calls() const { return calls_; }
  void reset_calls() { calls_ = GraphCalls{}; }

 private:
  amt::TaskGraphDef& inner_;
  mutable GraphCalls calls_;
};

/// Pass-through shim chained over whatever shim the NIC already has (the
/// failure detector over the reliability channel, or none).  Times every
/// Nic::send; times shim_deliver only when an inner shim does the work.
class NetProbe final : public net::LinkShim {
 public:
  explicit NetProbe(net::Nic& nic) : nic_(nic), inner_(nic.shim()) {
    nic_.set_shim(this);
  }
  ~NetProbe() override { nic_.set_shim(inner_); }
  NetProbe(const NetProbe&) = delete;
  NetProbe& operator=(const NetProbe&) = delete;

  void shim_send(net::Message&& m, std::function<void()> on_sent) override {
    Span s(kNetSend);
    if (inner_ != nullptr) {
      inner_->shim_send(std::move(m), std::move(on_sent));
    } else {
      nic_.raw_send(std::move(m), std::move(on_sent));
    }
  }
  bool shim_deliver(net::Message& m) override {
    if (inner_ == nullptr) return false;
    Span s(kRelDeliver);
    return inner_->shim_deliver(m);
  }

 private:
  net::Nic& nic_;
  net::LinkShim* inner_;
};

// ---------------------------------------------------------------------------
// Workloads and the stack.

constexpr int kTileSize = 1500;
constexpr int kFullN = 180000;
constexpr int kSmokeN = 18000;
constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  const char* name;
  int nodes;
  ce::BackendKind backend;
  bool fat_tree;
  bool fault_tolerance;  ///< reliable + failure detector + lineage
};

constexpr Workload kWorkloads[] = {
    {"tlr64-lci", 64, ce::BackendKind::Lci, false, false},
    {"tlr256-mpi-fattree", 256, ce::BackendKind::Mpi, true, false},
    {"tlr32-lci-ft", 32, ce::BackendKind::Lci, false, true},
};

/// The workload seed reaches the program only through the config: it sets
/// the rank-model jitter, the ECMP route salt and the reliability jitter.
hicma::ExperimentConfig make_config(const Workload& w, std::uint64_t seed,
                                    int n) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = w.nodes;
  cfg.cores_per_node = 128;
  cfg.backend = w.backend;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = n;
  cfg.tlr.nb = kTileSize;
  cfg.fabric =
      w.fat_tree ? net::expanse_fat_tree_config() : net::expanse_config();
  if (w.fault_tolerance) {
    cfg.rt.ft.enabled = true;
    cfg.ce.fd.enabled = true;
    cfg.ce.reliable.enabled = true;
  }
  cfg.tlr.rank_model.seed = des::derive_seed(seed, 1);
  cfg.fabric.topology.route_salt = des::derive_seed(seed, 2);
  cfg.ce.reliable.seed = des::derive_seed(seed, 3);
  return cfg;
}

amt::RuntimeConfig runtime_config(const hicma::ExperimentConfig& cfg) {
  amt::RuntimeConfig rt = cfg.rt;
  rt.workers = hicma::workers_for(cfg.cores_per_node, cfg.nodes, cfg.backend,
                                  cfg.ce.progress_thread);
  rt.mt_activate = cfg.mt_activate;
  return rt;
}

/// The stack hicma::run_tlr_cholesky builds, plus the probes of a traced
/// repeat.  Members are destroyed in reverse order: the runtime first,
/// then the probes (restoring the inner shims), then the comm world.
struct Stack {
  Stack(const hicma::ExperimentConfig& cfg, bool traced)
      : fabric(eng, cfg.nodes, cfg.fabric),
        comm(fabric, cfg.backend, cfg.ce, cfg.mpi, cfg.lci),
        graph(cfg.tlr, cfg.nodes),
        counting(traced ? std::make_unique<CountingGraph>(graph) : nullptr),
        rt(runtime_config(cfg)),
        runtime(eng, fabric, comm,
                counting ? static_cast<amt::TaskGraphDef&>(*counting)
                         : static_cast<amt::TaskGraphDef&>(graph),
                rt) {
    if (!traced) return;
    for (int n = 0; n < cfg.nodes; ++n) {
      probes.push_back(std::make_unique<NetProbe>(fabric.nic(n)));
    }
  }

  des::Engine eng;
  net::Fabric fabric;
  ce::CommWorld comm;
  hicma::TlrCholeskyGraph graph;
  std::unique_ptr<CountingGraph> counting;
  amt::RuntimeConfig rt;
  std::vector<std::unique_ptr<NetProbe>> probes;
  amt::Runtime runtime;
};

// ---------------------------------------------------------------------------
// One repeat.

struct Repeat {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  double export_s = 0;
  std::vector<std::string> failures;

  // Simulated results.
  double sim_tts_s = 0;
  double sim_e2e_p50_ms = 0;
  double sim_e2e_p99_ms = 0;
  double sim_utilization = 0;

  // Exact counts.
  std::uint64_t tasks = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t shards = 0;
  std::uint64_t flight_records = 0;
  ce::CeStats ce;
  ce::ReliableStats rel;
  ce::FdStats fd;
  GraphCalls calls;
  LayerTally tally[kNumLayers];
};

double safe_div(double a, double b) { return b == 0 ? 0.0 : a / b; }

Repeat run_repeat(const Workload& w, const hicma::ExperimentConfig& cfg,
                  bool traced) {
  Repeat r;
  r.traced = traced;
  const auto t_setup = Clock::now();
  auto stack = std::make_unique<Stack>(cfg, traced);
  r.setup_s = seconds_since(t_setup);
  if (stack->counting) stack->counting->reset_calls();
  reset_tallies();

  const auto t_run = Clock::now();
  const des::Duration makespan = stack->runtime.run();
  r.wall_s = seconds_since(t_run);
  for (int l = 0; l < kNumLayers; ++l) r.tally[l] = g_tally[l];
  if (stack->counting) r.calls = stack->counting->calls();

  Stack& s = *stack;
  const amt::NodeStats stats = s.runtime.aggregate_stats();
  r.sim_tts_s = des::to_seconds(makespan);
  r.sim_e2e_p50_ms = stats.latency.e2e_p50_ns() / 1e6;
  r.sim_e2e_p99_ms = stats.latency.e2e_p99_ns() / 1e6;
  const double core_s = des::to_seconds(makespan) *
                        static_cast<double>(s.rt.workers) *
                        static_cast<double>(cfg.nodes);
  r.sim_utilization =
      safe_div(des::to_seconds(s.runtime.total_worker_busy()), core_s);
  r.tasks = s.runtime.total_tasks_executed();
  r.msgs = s.fabric.total_messages();
  r.bytes = s.fabric.total_bytes();
  r.events = s.eng.events_fired();
  r.shards = s.eng.num_shards();
  for (int n = 0; n < cfg.nodes; ++n) {
    const ce::CeStats& c = s.comm.engine(n).stats();
    r.ce.ams_sent += c.ams_sent;
    r.ce.puts_started += c.puts_started;
    r.ce.puts_deferred += c.puts_deferred;
    r.ce.eager_puts += c.eager_puts;
  }
  if (s.comm.reliability() != nullptr) r.rel = s.comm.reliability()->stats();
  if (s.comm.failure_detector() != nullptr) {
    r.fd = s.comm.failure_detector()->stats();
  }
  const obs::FlightRecorder& fr = obs::FlightRecorder::global();
  for (int n = -1; n < cfg.nodes; ++n) r.flight_records += fr.total_records(n);

  // Correctness of this repeat on its own.
  std::uint64_t delivered = 0;
  for (int n = 0; n < cfg.nodes; ++n) {
    delivered += s.fabric.nic(n).stats().msgs_received;
  }
  const std::uint64_t drops = s.fabric.fault_stats().drops;
  if (s.runtime.run_status() != amt::RunStatus::Ok) {
    r.failures.push_back(std::string("run_status ") +
                         amt::run_status_name(s.runtime.run_status()));
  }
  if (r.tasks != s.graph.total_tasks()) {
    r.failures.push_back("tasks executed " + std::to_string(r.tasks) +
                         " != total_tasks " +
                         std::to_string(s.graph.total_tasks()));
  }
  if (r.msgs != delivered + drops) {
    r.failures.push_back("net.msgs " + std::to_string(r.msgs) +
                         " != delivered " + std::to_string(delivered) +
                         " + drops " + std::to_string(drops));
  }
  if (s.eng.past_schedules_clamped() != 0) {
    r.failures.push_back("past_schedules_clamped " +
                         std::to_string(s.eng.past_schedules_clamped()));
  }
  if (w.fault_tolerance && (r.fd.deaths != 0 || r.fd.false_suspects != 0)) {
    r.failures.push_back("crash-free run saw FD deaths " +
                         std::to_string(r.fd.deaths) + " / false suspects " +
                         std::to_string(r.fd.false_suspects));
  }

  // obs: the end-of-run export every driver performs.
  const auto t_export = Clock::now();
  s.fabric.export_metrics(s.comm.metrics());
  amt::export_latency_metrics(stats, s.comm.metrics());
  const std::string json = obs::metrics_json(s.comm.metrics());
  r.export_s = seconds_since(t_export);
  if (json.empty()) r.failures.push_back("empty metrics export");
  return r;
}

/// Flags a repeat whose deterministic results differ from the first one.
void check_determinism(const Repeat& first, Repeat& r) {
  if (r.sim_tts_s != first.sim_tts_s || r.msgs != first.msgs ||
      r.events != first.events) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "nondeterministic: tts %.17g/%.17g msgs %llu/%llu events "
                  "%llu/%llu",
                  r.sim_tts_s, first.sim_tts_s,
                  static_cast<unsigned long long>(r.msgs),
                  static_cast<unsigned long long>(first.msgs),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(first.events));
    r.failures.emplace_back(buf);
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;  ///< repeats the value is a median of (1 = exact)
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end_metrics(const std::vector<Repeat>& reps,
                                       const std::vector<double>& setups) {
  std::vector<double> wall;
  for (const Repeat& r : reps) wall.push_back(r.wall_s);
  const Repeat& f = reps.front();
  return {
      {"wall_s", median(wall), "s", wall.size()},
      {"setup_s", median(setups), "s", setups.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"sim_tts_s", f.sim_tts_s, "s", 1},
      {"sim_e2e_p50_ms", f.sim_e2e_p50_ms, "ms", 1},
      {"sim_e2e_p99_ms", f.sim_e2e_p99_ms, "ms", 1},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Repeat>& reps,
                                      const SpanCost& cost) {
  std::vector<double> wall_u, wall_t, export_s, hicma_share, net_share,
      rest_share, send_ns, deliver_ns;
  const Repeat* traced = nullptr;
  for (const Repeat& r : reps) {
    export_s.push_back(r.export_s);
    if (!r.traced) {
      wall_u.push_back(r.wall_s);
      continue;
    }
    if (traced == nullptr) traced = &r;
    wall_t.push_back(r.wall_s);
    // Self time of each layer less the clock cost its spans measured of
    // themselves, over the traced wall time less every span's full cost.
    double spans = 0;
    for (const LayerTally& t : r.tally) spans += static_cast<double>(t.spans);
    const double wall_ns = r.wall_s * 1e9 - spans * cost.total_ns;
    const auto self = [&](Layer l) {
      const LayerTally& t = r.tally[l];
      return static_cast<double>(t.self_ns) -
             static_cast<double>(t.spans) * cost.inside_ns;
    };
    const double h = self(kHicma);
    const double ns = self(kNetSend);
    hicma_share.push_back(safe_div(h, wall_ns));
    net_share.push_back(safe_div(ns, wall_ns));
    rest_share.push_back(safe_div(wall_ns - h - ns, wall_ns));
    send_ns.push_back(
        safe_div(ns, static_cast<double>(r.tally[kNetSend].spans)));
    deliver_ns.push_back(safe_div(
        self(kRelDeliver), static_cast<double>(r.tally[kRelDeliver].spans)));
  }
  const Repeat& t = *traced;
  const double msgs = static_cast<double>(t.msgs);
  const double tasks = static_cast<double>(t.tasks);
  const double wall = median(wall_u);
  std::uint64_t allocs = 0, bytes = 0;
  for (const LayerTally& l : t.tally) {
    allocs += l.allocs;
    bytes += l.bytes;
  }
  const double hicma_allocs = static_cast<double>(t.tally[kHicma].allocs);
  const double net_allocs = static_cast<double>(t.tally[kNetSend].allocs);
  const std::size_t nu = wall_u.size(), nt = wall_t.size();
  return {
      // des
      {"des.events_per_msg", safe_div(static_cast<double>(t.events), msgs),
       "events/msg", 1},
      {"des.shards", static_cast<double>(t.shards), "count", 1},
      {"des.host_ns_per_event",
       safe_div(wall * 1e9, static_cast<double>(t.events)), "ns/event", nu},
      // net
      {"net.msgs", msgs, "count", 1},
      {"net.bytes_per_msg", safe_div(static_cast<double>(t.bytes), msgs),
       "B/msg", 1},
      {"net.send_ns_per_msg", median(send_ns), "ns/msg", nt},
      {"net.allocs_per_msg", safe_div(net_allocs, msgs), "allocs/msg", 1},
      {"net.self_share", median(net_share), "share", nt},
      // mlci/mmpi + ce
      {"ce.ams_per_task", safe_div(static_cast<double>(t.ce.ams_sent), tasks),
       "ams/task", 1},
      {"ce.puts_per_task",
       safe_div(static_cast<double>(t.ce.puts_started), tasks), "puts/task",
       1},
      {"ce.puts_deferred", static_cast<double>(t.ce.puts_deferred), "count",
       1},
      {"ce.eager_put_ratio",
       safe_div(static_cast<double>(t.ce.eager_puts),
                static_cast<double>(t.ce.puts_started)),
       "ratio", 1},
      {"alloc.rest_per_msg",
       safe_div(static_cast<double>(allocs) - hicma_allocs - net_allocs, msgs),
       "allocs/msg", 1},
      {"rest.self_share", median(rest_share), "share", nt},
      // reliable / failure detector
      {"ce.rel.retransmit_ratio",
       safe_div(static_cast<double>(t.rel.retransmits),
                static_cast<double>(t.rel.data_sent)),
       "ratio", 1},
      {"ce.rel.ctrl_frames_per_data",
       safe_div(static_cast<double>(t.rel.acks_sent + t.rel.nacks_sent +
                                    t.fd.heartbeats_sent),
                static_cast<double>(t.rel.data_sent)),
       "frames/frame", 1},
      {"ce.fd.heartbeats", static_cast<double>(t.fd.heartbeats_sent), "count",
       1},
      {"ce.rel.deliver_ns_per_frame", median(deliver_ns), "ns/frame", nt},
      // amt
      {"amt.host_us_per_task", safe_div(wall * 1e6, tasks), "us/task", nu},
      {"amt.sim_utilization", t.sim_utilization, "ratio", 1},
      // hicma
      {"hicma.graph_calls_per_task",
       safe_div(static_cast<double>(t.calls.sum()), tasks), "calls/task", 1},
      {"hicma.rank_of_per_task",
       safe_div(static_cast<double>(t.calls.rank_of), tasks), "calls/task", 1},
      {"hicma.allocs_per_task", safe_div(hicma_allocs, tasks), "allocs/task",
       1},
      {"hicma.self_share", median(hicma_share), "share", nt},
      // whole run
      {"alloc.per_msg", safe_div(static_cast<double>(allocs), msgs),
       "allocs/msg", 1},
      {"alloc.bytes_per_msg", safe_div(static_cast<double>(bytes), msgs),
       "B/msg", 1},
      {"run.host_us_per_msg", safe_div(wall * 1e6, msgs), "us/msg", nu},
      // obs
      {"obs.export_s", median(export_s), "s", export_s.size()},
      {"obs.flight_records_per_msg",
       safe_div(static_cast<double>(t.flight_records), msgs), "records/msg",
       1},
      // the traced run's own cost
      {"trace.overhead", safe_div(median(wall_t), wall) - 1.0, "ratio",
       std::min(nu, nt)},
  };
}

// ---------------------------------------------------------------------------
// Driver.

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\nworkloads:",
               why, argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) usage(argv[0], "unknown workload");
    } else if (a == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 0);
      if (v.empty() || v[0] == '-' || *end != '\0') {
        usage(argv[0], "--seed must be a non-negative integer");
      }
    } else if (a == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds >= 0)) {
        usage(argv[0], "--seconds must be a number >= 0");
      }
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage(argv[0], "--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage(argv[0], ("unknown argument " + a).c_str());
    }
  }
  if (o.workload == nullptr) usage(argv[0], "--workload is required");
  return o;
}

void print_result(const std::vector<Repeat>& reps,
                  const std::vector<Metric>& metrics) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Repeat& r = reps[i];
    std::printf("# repeat %zu %s: setup %.6f s, run %.6f s, export %.6f s%s\n",
                i, r.traced ? "traced" : "untraced", r.setup_s, r.wall_s,
                r.export_s, r.failures.empty() ? "" : ", FAILED");
    for (const std::string& f : r.failures) {
      std::printf("#   check failed: %s\n", f.c_str());
    }
    if (!r.failures.empty()) ++failed;
  }
  for (const Metric& m : metrics) {
    std::printf("# %-30s %18.9g %-12s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit, m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", reps.size(), failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  const Options opt = parse(argc, argv);
  const Workload& w = *opt.workload;
  const int n = opt.smoke ? kSmokeN : kFullN;
  const hicma::ExperimentConfig cfg = make_config(w, opt.seed, n);
  std::printf("# perfbench workload=%s seed=%llu trace=%d seconds=%g n=%d "
              "nb=%d nodes=%d backend=%s\n",
              w.name, static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, opt.seconds, n, kTileSize, w.nodes,
              w.backend == ce::BackendKind::Lci ? "lci" : "mpi");

  const SpanCost cost = opt.trace ? calibrate_span_cost() : SpanCost{};
  if (opt.trace) {
    std::printf("# span cost: %.1f ns measured inside, %.1f ns total\n",
                cost.inside_ns, cost.total_ns);
  }

  // Set-up alone, several times: setup_s is a median of these plus the
  // set-up of every untraced repeat.
  std::vector<double> setups;
  if (!opt.trace) {
    constexpr int kSetupOnly = 60;
    for (int i = 0; i < kSetupOnly; ++i) {
      const auto t0 = Clock::now();
      { Stack s(cfg, /*traced=*/false); }
      setups.push_back(seconds_since(t0));
    }
  }

  // Repeats until the time is up (at least two, so determinism is
  // checked); with tracing, untraced and traced repeats alternate.
  std::vector<Repeat> reps;
  std::vector<double> repeat_cost;
  while (true) {
    const double elapsed = seconds_since(t_start);
    if (reps.size() >= 2 &&
        elapsed + median(repeat_cost) > opt.seconds) {
      break;
    }
    const bool traced = opt.trace && reps.size() % 2 == 1;
    const auto t0 = Clock::now();
    reps.push_back(run_repeat(w, cfg, traced));
    repeat_cost.push_back(seconds_since(t0));
    if (reps.size() > 1) check_determinism(reps.front(), reps.back());
    if (!traced) setups.push_back(reps.back().setup_s);
  }

  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(reps, cost)
                : end_to_end_metrics(reps, setups);
  print_result(reps, metrics);
  return 0;
}
