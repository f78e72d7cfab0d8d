#include "hicma/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "des/engine.hpp"
#include "net/fabric.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "amt/probes.hpp"
#include "amt/runtime.hpp"

namespace hicma {
namespace {

/// Context sections for the post-mortem bundle: the knobs that reproduce
/// the run and the ground-truth crash schedule it ran under.
std::string postmortem_config_json(const ExperimentConfig& cfg, int workers) {
  std::string out = "{ \"backend\": \"";
  out += cfg.backend == ce::BackendKind::Lci ? "lci" : "mpi";
  out += "\", \"nodes\": " + std::to_string(cfg.nodes);
  out += ", \"workers\": " + std::to_string(workers);
  out += ", \"n\": " + std::to_string(cfg.tlr.n);
  out += ", \"nb\": " + std::to_string(cfg.tlr.nb);
  out += " }";
  return out;
}

std::string crash_schedule_json(const net::FaultConfig& f) {
  std::string out = "[";
  for (std::size_t i = 0; i < f.crashes.size(); ++i) {
    const net::CrashEvent& c = f.crashes[i];
    out += i == 0 ? " " : ", ";
    out += "{ \"node\": " + std::to_string(c.node);
    out += ", \"crash_at\": " + std::to_string(c.crash_at);
    out += ", \"restart_at\": " + std::to_string(c.restart_at) + " }";
  }
  out += f.crashes.empty() ? "]" : " ]";
  return out;
}

}  // namespace

int workers_for(int cores, int nodes, ce::BackendKind backend,
                bool progress_thread) {
  if (nodes == 1) return cores;  // single-node: all cores compute (§6.1.2)
  int w = cores - 1;  // communication thread
  if (backend == ce::BackendKind::Lci && progress_thread) --w;
  return std::max(1, w);
}

ExperimentResult run_tlr_cholesky(const ExperimentConfig& cfg) {
  des::Engine eng;
  const auto tracer = obs::Tracer::attach_from_env(eng);
  const auto timeline = obs::Timeline::attach_from_env(eng);
  if (timeline != nullptr) timeline->set_counter_sink(tracer.get());
  net::Fabric fabric(eng, cfg.nodes, cfg.fabric);
  ce::CommWorld comm(fabric, cfg.backend, cfg.ce, cfg.mpi, cfg.lci);

  amt::RuntimeConfig rt = cfg.rt;
  rt.workers = cfg.workers_override > 0
                   ? cfg.workers_override
                   : workers_for(cfg.cores_per_node, cfg.nodes, cfg.backend,
                                 cfg.ce.progress_thread);
  rt.mt_activate = cfg.mt_activate;

  TlrCholeskyGraph graph(cfg.tlr, cfg.nodes);
  amt::Runtime runtime(eng, fabric, comm, graph, rt);
  if (timeline != nullptr) {
    amt::install_standard_probes(*timeline, fabric, comm, runtime);
    runtime.set_timeline(timeline.get());
    timeline->mark_phase("run.start", eng.now());
  }
  const des::Time t0 = eng.now();
  const des::Duration makespan = runtime.run();
  if (timeline != nullptr) timeline->finish(t0 + makespan);

  ExperimentResult res;
  res.tts_s = des::to_seconds(makespan);
  res.run_status = runtime.run_status();
  res.runtime_stats = runtime.aggregate_stats();
  res.latency = res.runtime_stats.latency;
  res.tasks = runtime.total_tasks_executed();
  res.tasks_done = runtime.tasks_done();
  res.events_fired = eng.events_fired();
  const double core_time = des::to_seconds(makespan) *
                           static_cast<double>(rt.workers) *
                           static_cast<double>(cfg.nodes);
  res.worker_utilization =
      core_time > 0
          ? des::to_seconds(runtime.total_worker_busy()) / core_time
          : 0.0;
  for (int n = 0; n < cfg.nodes; ++n) {
    const ce::CeStats& s = comm.engine(n).stats();
    res.ce_stats.ams_sent += s.ams_sent;
    res.ce_stats.ams_delivered += s.ams_delivered;
    res.ce_stats.puts_started += s.puts_started;
    res.ce_stats.puts_completed_local += s.puts_completed_local;
    res.ce_stats.puts_completed_remote += s.puts_completed_remote;
    res.ce_stats.puts_deferred += s.puts_deferred;
    res.ce_stats.recvs_dynamic += s.recvs_dynamic;
    res.ce_stats.retries_delegated += s.retries_delegated;
    res.ce_stats.eager_puts += s.eager_puts;
    res.ce_stats.peer_failed_sends += s.peer_failed_sends;
    res.ce_stats.peer_failed_recvs += s.peer_failed_recvs;
  }
  res.fabric_messages = fabric.total_messages();
  res.fabric_bytes = fabric.total_bytes();
  res.metrics = comm.metrics_snapshot();
  amt::export_latency_metrics(res.runtime_stats, res.metrics);
  res.mean_rank = graph.mean_offdiag_rank();
  if (cfg.tlr.mode == TlrOptions::Mode::Real) {
    res.residual = graph.verify();
  }
  if (timeline != nullptr) {
    // stderr: every driver multiplexes machine-readable JSON on stdout.
    const std::string report = timeline->report();
    std::fwrite(report.data(), 1, report.size(), stderr);
    timeline->write();
  }
  if (res.run_status != amt::RunStatus::Ok) {
    obs::FlightRecorder::global().dump_postmortem(
        amt::run_status_name(res.run_status),
        postmortem_config_json(cfg, rt.workers),
        crash_schedule_json(cfg.fabric.faults), obs::metrics_json(res.metrics));
  }
  return res;
}

}  // namespace hicma
