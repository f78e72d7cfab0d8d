// Two-flow TLR (tile low-rank) Cholesky factorization over the AMT
// runtime — the HiCMA workload of the paper's §6.4.
//
// Structure (band size 1, lower-triangular, nt = n / nb tiles per side):
//   DIAG(i)      materialize the dense diagonal tile D_ii
//   CMPR(i,j)    materialize + compress the off-diagonal tile to U V^T
//   POTRF(k)     D_kk -> L_kk (dense)
//   TRSM(i,k)    V_ik <- L_kk^{-1} V_ik        (only V changes!)
//   SYRK(i,k)    D_ii <- D_ii - U (V^T V) U^T  (dense update)
//   GEMM(i,j,k)  A_ij <- A_ij - L_ik L_jk^T    (factored + recompression)
//
// "Two-flow" means the U and V factors of a panel tile travel as separate
// dataflows: U_ik is broadcast by the task that last *wrote* it (CMPR or
// the final GEMM on that tile) while V_ik is broadcast by TRSM(i,k) —
// consumers can receive U early and overlap it with the panel solve,
// exactly the HiCMA optimization the paper's experiments run [7, 8].
//
// Two execution modes:
//   Real  — tiles hold real doubles from the st-2d-sqexp generator; every
//           kernel computes; the result is verifiable against ||LL^T - A||.
//   Model — paper-scale: virtual payloads sized by the calibrated rank
//           model, kernel durations from flop counts.  The task graph,
//           message pattern, and runtime behaviour are identical.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "des/time.hpp"
#include "hicma/rank_model.hpp"
#include "linalg/hcore.hpp"
#include "linalg/lowrank.hpp"
#include "linalg/starsh.hpp"
#include "amt/task_graph.hpp"

namespace hicma {

/// Task-class ids (TaskKey::cls).
enum TaskClass : std::int32_t {
  kDiag = 0,
  kCmpr = 1,
  kPotrf = 2,
  kTrsm = 3,
  kSyrk = 4,
  kGemm = 5,
};

struct TlrOptions {
  enum class Mode { Real, Model };
  Mode mode = Mode::Model;

  int n = 360000;      ///< matrix dimension
  int nb = 1200;       ///< tile size
  double accuracy = 1e-8;
  int maxrank = 150;

  /// Process grid (2D block-cyclic); 0 = derive near-square from nodes.
  int grid_p = 0;
  int grid_q = 0;

  // --- model mode ---------------------------------------------------------
  RankModel rank_model;          ///< tile_size/maxrank overwritten from above
  /// Dense BLAS-3 rate for the band kernels (POTRF/TRSM and the
  /// dense-shaped part of SYRK).  HiCMA's dense diagonal kernels run with
  /// fused multi-core BLAS (a single-core POTRF of a 6000-tile would
  /// alone exceed the paper's whole time-to-solution), so this is an
  /// effective multi-core rate.
  double dense_gflops = 400.0;
  /// Rate for rank-sized panel work (thin GEMM, tall QR, small SVD in the
  /// low-rank update/recompression): memory-bound, far below dense peak —
  /// the low compute intensity §6.4.1 describes.
  double lr_gflops = 1.4;
  des::Duration kernel_overhead = 3 * des::kMicrosecond;

  // --- real mode ------------------------------------------------------------
  linalg::SqExpProblem problem;  ///< n overwritten from above

  int nt() const { return (n + nb - 1) / nb; }
};

/// Collected factor pieces (real mode) for verification.
struct TlrResult {
  std::map<std::pair<int, int>, linalg::Matrix> dense;  ///< L_kk
  std::map<std::pair<int, int>, linalg::Matrix> u;      ///< U_ik
  std::map<std::pair<int, int>, linalg::Matrix> v;      ///< V_ik (post-TRSM)
};

class TlrCholeskyGraph final : public amt::TaskGraphDef {
 public:
  TlrCholeskyGraph(TlrOptions opts, int num_nodes);

  // TaskGraphDef interface.
  int num_inputs(const amt::TaskKey& t) const override;
  int num_outputs(const amt::TaskKey& t) const override;
  int rank_of(const amt::TaskKey& t) const override;
  void successors(const amt::TaskKey& t, int flow,
                  std::vector<amt::Dep>& out) const override;
  /// Steps the panel loops by the process-grid period instead of
  /// filtering: a node visits only the consumers it owns.
  void successors_on(int rank, const amt::TaskKey& t, int flow,
                     std::vector<amt::Dep>& out) const override;
  double priority(const amt::TaskKey& t) const override;
  des::Duration execute(const amt::TaskKey& t,
                        amt::RunContext& ctx) override;
  void initial_tasks(int rank, std::vector<amt::TaskKey>& out) const override;
  std::uint64_t total_tasks() const override;
  /// Closed form, classes in TaskClass order: DIAG, CMPR, POTRF, TRSM,
  /// SYRK, GEMM, each block indexed by its tile coordinates.
  std::uint64_t task_id(const amt::TaskKey& t) const override;

  const TlrOptions& options() const { return opts_; }
  const TlrResult& result() const { return result_; }

  /// Real mode: relative factorization residual ||L L^T - A||_F / ||A||_F.
  double verify() const;

  /// Observed rank statistics (real mode: actual; model mode: sampled).
  double mean_offdiag_rank() const;

 private:
  int tile_owner(int i, int j) const;
  int model_rank(int i, int j) const;
  des::Duration dense_duration(double flops) const;
  des::Duration lr_duration(double flops) const;
  des::Duration kernel_duration(const linalg::KernelCost& cost) const;

  des::Duration exec_real(const amt::TaskKey& t, amt::RunContext& ctx);
  des::Duration exec_model(const amt::TaskKey& t, amt::RunContext& ctx);

  TlrOptions opts_;
  int grid_p_ = 1, grid_q_ = 1;
  linalg::CompressOptions copts_;

  // Real-mode problem data.
  std::vector<std::pair<double, double>> points_;
  TlrResult result_;
};

}  // namespace hicma
