// Experiment driver: builds the simulated cluster, runs a TLR Cholesky,
// and returns the measurements the paper's §6.4 plots (time-to-solution,
// end-to-end communication latency, utilization).  Used by the benches
// and examples.
#pragma once

#include <cstdint>

#include "ce/world.hpp"
#include "hicma/tlr_cholesky.hpp"
#include "net/config.hpp"
#include "obs/stats.hpp"
#include "amt/config.hpp"

namespace hicma {

struct ExperimentConfig {
  int nodes = 16;
  int cores_per_node = 128;  ///< Expanse: 2 x 64-core EPYC (Table 1)
  ce::BackendKind backend = ce::BackendKind::Mpi;
  bool mt_activate = false;  ///< §6.4.3 communication multithreading
  TlrOptions tlr;
  net::FabricConfig fabric = net::expanse_config();
  ce::CeConfig ce;
  mmpi::Config mpi;
  mlci::Config lci;
  amt::RuntimeConfig rt;    ///< workers field is ignored; see below
  int workers_override = 0; ///< >0 forces the worker count; 0 = §6.1.2 rule
};

struct ExperimentResult {
  ce::CeStats ce_stats;             ///< summed over all engines
  double tts_s = 0;                 ///< time-to-solution, seconds
  /// Ok on fault-free or fully recovered runs; an error status when the
  /// graph could not be completed (fault tolerance fails closed).
  amt::RunStatus run_status = amt::RunStatus::Ok;
  amt::LatencyStats latency;        ///< hop + end-to-end comm latency
  amt::NodeStats runtime_stats;     ///< aggregated counters
  double worker_utilization = 0;    ///< busy fraction of worker cores
  std::uint64_t fabric_messages = 0;
  std::uint64_t fabric_bytes = 0;
  double mean_rank = 0;
  double residual = -1;             ///< real mode: ||LL^T - A|| / ||A||
  std::uint64_t tasks = 0;           ///< task runs, re-executions included
  std::uint64_t tasks_done = 0;      ///< distinct tasks completed
  std::uint64_t events_fired = 0;   ///< DES events fired over the run
  /// CommWorld::metrics_snapshot() plus the runtime's amt.lat.*
  /// histograms: wire transit, put latencies, queue waits (histograms
  /// with percentiles) and every layer's nonzero counters.
  obs::Recorder metrics;
};

/// Worker-thread count per §6.1.2: all cores on one node; cores minus the
/// communication thread (minus the LCI progress thread) on multi-node.
int workers_for(int cores, int nodes, ce::BackendKind backend,
                bool progress_thread);

ExperimentResult run_tlr_cholesky(const ExperimentConfig& cfg);

}  // namespace hicma
