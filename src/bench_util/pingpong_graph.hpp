// The task-based windowed ping-pong benchmark of paper §6.2/§6.3.
//
// PINGPONG(t, f, c) operates on fragment f (window position) of stream c
// in iteration t; tasks execute round-robin across nodes so the fragment
// data crosses the network every iteration.  A Sync(t) task (optional —
// the "no sync" variants of Fig. 2b drop it) forces serialization between
// iterations.  For the overlap study (§6.3, Fig. 3) each task can execute
// a configurable number of FMA operations per 8 bytes of its fragment.
#pragma once

#include <cstddef>
#include <cstdint>

#include "des/time.hpp"
#include "amt/task_graph.hpp"

namespace bench {

struct PingPongOptions {
  std::size_t fragment_bytes = 1 << 20;
  /// Data volume per iteration per stream; the window size is
  /// total_bytes / fragment_bytes (the paper holds this at 256 MiB).
  std::size_t total_bytes = 256ull << 20;
  int iterations = 4;
  int streams = 1;
  int nodes = 2;
  bool sync = true;

  /// Compute intensity: FMA operations executed per 8 bytes of fragment
  /// (0 = pure bandwidth benchmark).  GEMM-like intensity is
  /// sqrt(fragment_bytes / 8).
  double fma_per_8bytes = 0.0;
  double core_gflops = 10.0;  ///< worker FLOP rate for the intensity model

  int window() const {
    return static_cast<int>(total_bytes / fragment_bytes);
  }
};

class PingPongGraph final : public amt::TaskGraphDef {
 public:
  explicit PingPongGraph(PingPongOptions opts) : opts_(opts) {}

  int num_inputs(const amt::TaskKey& t) const override;
  int num_outputs(const amt::TaskKey& t) const override;
  int rank_of(const amt::TaskKey& t) const override;
  void successors(const amt::TaskKey& t, int flow,
                  std::vector<amt::Dep>& out) const override;
  des::Duration execute(const amt::TaskKey& t,
                        amt::RunContext& ctx) override;
  void initial_tasks(int rank, std::vector<amt::TaskKey>& out) const override;
  std::uint64_t total_tasks() const override;
  /// Closed form: PINGs by (iteration, fragment, stream), then SYNCs by
  /// iteration, then SENDs like PINGs.
  std::uint64_t task_id(const amt::TaskKey& t) const override;

  /// Task-body FLOPs executed over the whole run.
  double total_flops() const;

  const PingPongOptions& options() const { return opts_; }

 private:
  PingPongOptions opts_;
};

}  // namespace bench
