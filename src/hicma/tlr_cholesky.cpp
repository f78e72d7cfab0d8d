#include "hicma/tlr_cholesky.hpp"

#include <cassert>
#include <cmath>

#include "hicma/serialize.hpp"
#include "linalg/blas.hpp"
#include "linalg/hcore.hpp"

namespace hicma {
namespace {

/// Near-square process grid: the largest p <= sqrt(nodes) dividing nodes.
std::pair<int, int> make_grid(int nodes) {
  int p = static_cast<int>(std::sqrt(static_cast<double>(nodes)));
  while (p > 1 && nodes % p != 0) --p;
  return {p, nodes / p};
}

}  // namespace

TlrCholeskyGraph::TlrCholeskyGraph(TlrOptions opts, int num_nodes)
    : opts_(std::move(opts)) {
  assert(opts_.n % opts_.nb == 0 && "tile size must divide the matrix");
  std::tie(grid_p_, grid_q_) = make_grid(num_nodes);
  copts_ = {.accuracy = opts_.accuracy, .maxrank = opts_.maxrank};
  opts_.rank_model.tile_size = opts_.nb;
  opts_.rank_model.maxrank = opts_.maxrank;
  if (opts_.mode == TlrOptions::Mode::Real) {
    opts_.problem.n = opts_.n;
    points_ = linalg::sqexp_points(opts_.problem);
  }
}

int TlrCholeskyGraph::tile_owner(int i, int j) const {
  return (i % grid_p_) * grid_q_ + (j % grid_q_);
}

int TlrCholeskyGraph::model_rank(int i, int j) const {
  return opts_.rank_model.rank(i, j);
}

des::Duration TlrCholeskyGraph::dense_duration(double flops) const {
  return opts_.kernel_overhead +
         des::from_seconds(flops / (opts_.dense_gflops * 1e9));
}

des::Duration TlrCholeskyGraph::lr_duration(double flops) const {
  return opts_.kernel_overhead +
         des::from_seconds(flops / (opts_.lr_gflops * 1e9));
}

des::Duration TlrCholeskyGraph::kernel_duration(
    const linalg::KernelCost& cost) const {
  return opts_.kernel_overhead +
         des::from_seconds(cost.dense / (opts_.dense_gflops * 1e9) +
                           cost.skinny / (opts_.lr_gflops * 1e9));
}

// ---------------------------------------------------------------------------
// Graph shape

int TlrCholeskyGraph::num_inputs(const amt::TaskKey& t) const {
  switch (t.cls) {
    case kDiag:
    case kCmpr:
      return 0;
    case kPotrf:
      return 1;
    case kTrsm:
      return 2;  // L_kk, V_ik
    case kSyrk:
      return 3;  // D chain, U_ik, V_ik
    case kGemm:
      return 5;  // A_ij chain, U_ik, V_ik, U_jk, V_jk
  }
  assert(false);
  return 0;
}

int TlrCholeskyGraph::num_outputs(const amt::TaskKey& t) const {
  const int nt = opts_.nt();
  switch (t.cls) {
    case kDiag:
      return 1;
    case kCmpr:
      return t.j == 0 ? 2 : 1;  // (U, V) straight to panel 0, else packed
    case kPotrf:
      return t.i < nt - 1 ? 1 : 0;
    case kTrsm:
      return 1;
    case kSyrk:
      return 1;
    case kGemm:
      return t.k == t.j - 1 ? 2 : 1;
  }
  assert(false);
  return 0;
}

int TlrCholeskyGraph::rank_of(const amt::TaskKey& t) const {
  switch (t.cls) {
    case kDiag:
      return tile_owner(t.i, t.i);
    case kCmpr:
      return tile_owner(t.i, t.j);
    case kPotrf:
      return tile_owner(t.i, t.i);  // t.i = k
    case kTrsm:
      return tile_owner(t.i, t.j);  // t.j = k
    case kSyrk:
      return tile_owner(t.i, t.i);
    case kGemm:
      return tile_owner(t.i, t.j);
  }
  assert(false);
  return 0;
}

void TlrCholeskyGraph::successors(const amt::TaskKey& t, int flow,
                                  std::vector<amt::Dep>& out) const {
  const int nt = opts_.nt();
  // Consumers of the panel tile (i, k)'s U factor (input 1 / 3) and V
  // factor (input 2 / 4).
  const auto panel_consumers = [&](int i, int k, bool u_factor) {
    const std::int32_t self_in = u_factor ? 1 : 2;
    const std::int32_t other_in = u_factor ? 3 : 4;
    out.push_back({amt::TaskKey{kSyrk, i, k}, self_in});
    for (int j = k + 1; j < i; ++j) {
      out.push_back({amt::TaskKey{kGemm, i, j, k}, self_in});
    }
    for (int i2 = i + 1; i2 < nt; ++i2) {
      out.push_back({amt::TaskKey{kGemm, i2, i, k}, other_in});
    }
  };

  switch (t.cls) {
    case kDiag:
      if (t.i == 0) {
        out.push_back({amt::TaskKey{kPotrf, 0}, 0});
      } else {
        out.push_back({amt::TaskKey{kSyrk, t.i, 0}, 0});
      }
      return;
    case kCmpr:
      if (t.j == 0) {
        if (flow == 0) {
          panel_consumers(t.i, 0, /*u_factor=*/true);
        } else {
          out.push_back({amt::TaskKey{kTrsm, t.i, 0}, 1});
        }
      } else {
        out.push_back({amt::TaskKey{kGemm, t.i, t.j, 0}, 0});
      }
      return;
    case kPotrf: {
      const int k = t.i;
      for (int i = k + 1; i < nt; ++i) {
        out.push_back({amt::TaskKey{kTrsm, i, k}, 0});
      }
      return;
    }
    case kTrsm:
      panel_consumers(t.i, t.j, /*u_factor=*/false);
      return;
    case kSyrk: {
      const int i = t.i, k = t.j;
      if (k == i - 1) {
        out.push_back({amt::TaskKey{kPotrf, i}, 0});
      } else {
        out.push_back({amt::TaskKey{kSyrk, i, k + 1}, 0});
      }
      return;
    }
    case kGemm: {
      const int i = t.i, j = t.j, k = t.k;
      if (k < j - 1) {
        out.push_back({amt::TaskKey{kGemm, i, j, k + 1}, 0});
      } else if (flow == 0) {
        panel_consumers(i, j, /*u_factor=*/true);
      } else {
        out.push_back({amt::TaskKey{kTrsm, i, j}, 1});
      }
      return;
    }
  }
  assert(false);
}

void TlrCholeskyGraph::successors_on(int rank, const amt::TaskKey& t,
                                     int flow,
                                     std::vector<amt::Dep>& out) const {
  const int nt = opts_.nt();
  // Under the 2D block-cyclic map, `rank` owns the tiles (i, j) with
  // i % grid_p_ == row and j % grid_q_ == col.
  const int row = rank / grid_q_;
  const int col = rank % grid_q_;
  if (row >= grid_p_) return;
  // First index >= lo congruent to `rem` modulo `period`.
  const auto first = [](int lo, int rem, int period) {
    return lo + ((rem - lo % period) % period + period) % period;
  };
  // The owned part of panel_consumers() in successors(), in its order.
  const auto panel_consumers = [&](int i, int k, bool u_factor) {
    const std::int32_t self_in = u_factor ? 1 : 2;
    const std::int32_t other_in = u_factor ? 3 : 4;
    if (i % grid_p_ == row) {
      if (i % grid_q_ == col) {
        out.push_back({amt::TaskKey{kSyrk, i, k}, self_in});
      }
      for (int j = first(k + 1, col, grid_q_); j < i; j += grid_q_) {
        out.push_back({amt::TaskKey{kGemm, i, j, k}, self_in});
      }
    }
    if (i % grid_q_ == col) {
      for (int i2 = first(i + 1, row, grid_p_); i2 < nt; i2 += grid_p_) {
        out.push_back({amt::TaskKey{kGemm, i2, i, k}, other_in});
      }
    }
  };

  switch (t.cls) {
    case kCmpr:
      if (t.j == 0 && flow == 0) {
        panel_consumers(t.i, 0, /*u_factor=*/true);
        return;
      }
      break;
    case kPotrf:
      if (t.i % grid_q_ == col) {
        for (int i = first(t.i + 1, row, grid_p_); i < nt; i += grid_p_) {
          out.push_back({amt::TaskKey{kTrsm, i, t.i}, 0});
        }
      }
      return;
    case kTrsm:
      panel_consumers(t.i, t.j, /*u_factor=*/false);
      return;
    case kGemm:
      if (t.k == t.j - 1 && flow == 0) {
        panel_consumers(t.i, t.j, /*u_factor=*/true);
        return;
      }
      break;
    default:
      break;
  }
  // Single-consumer flows: filtering costs one owner lookup.
  amt::TaskGraphDef::successors_on(rank, t, flow, out);
}

double TlrCholeskyGraph::priority(const amt::TaskKey& t) const {
  const int nt = opts_.nt();
  // Panel index drives urgency; within a panel: POTRF > TRSM > SYRK >
  // GEMM, then closer-to-panel tiles first.  This mirrors the
  // critical-path prioritization §6.4.1 calls the key element.
  const auto level = [&](int k, int bump, int dist) {
    return (static_cast<double>(nt - k) * 4.0 + bump) * 1e4 - dist;
  };
  switch (t.cls) {
    case kDiag:
      return level(0, 1, t.i);
    case kCmpr:
      return level(t.j == 0 ? 0 : t.j, 0, t.i + t.j);
    case kPotrf:
      return level(t.i, 3, 0);
    case kTrsm:
      return level(t.j, 2, t.i);
    case kSyrk:
      return level(t.j, 1, t.i);
    case kGemm:
      return level(t.k, 0, t.i + t.j);
  }
  return 0.0;
}

void TlrCholeskyGraph::initial_tasks(int rank,
                                     std::vector<amt::TaskKey>& out) const {
  const int nt = opts_.nt();
  for (int i = 0; i < nt; ++i) {
    if (tile_owner(i, i) == rank) out.push_back(amt::TaskKey{kDiag, i});
    for (int j = 0; j < i; ++j) {
      if (tile_owner(i, j) == rank) {
        out.push_back(amt::TaskKey{kCmpr, i, j});
      }
    }
  }
}

std::uint64_t TlrCholeskyGraph::total_tasks() const {
  const auto nt = static_cast<std::uint64_t>(opts_.nt());
  const std::uint64_t offdiag = nt * (nt - 1) / 2;
  const std::uint64_t gemms = nt * (nt - 1) * (nt - 2) / 6;
  // DIAG + CMPR + POTRF + TRSM + SYRK + GEMM
  return nt + offdiag + nt + offdiag + offdiag + gemms;
}

std::uint64_t TlrCholeskyGraph::task_id(const amt::TaskKey& t) const {
  const auto nt = static_cast<std::uint64_t>(opts_.nt());
  const auto i = static_cast<std::uint64_t>(t.i);
  const auto j = static_cast<std::uint64_t>(t.j);
  const auto k = static_cast<std::uint64_t>(t.k);
  // Rank of the pair j < i, and of the triple k < j < i, in
  // combinatorial-number order: C(i,2) + j and C(i,3) + C(j,2) + k.
  const auto pair = [](std::uint64_t a, std::uint64_t b) {
    return a * (a - 1) / 2 + b;
  };
  const std::uint64_t tri = nt * (nt - 1) / 2;  // tiles below the diagonal
  switch (t.cls) {
    case kDiag:
      return i;
    case kCmpr:
      return nt + pair(i, j);
    case kPotrf:
      return nt + tri + i;
    case kTrsm:
      return 2 * nt + tri + pair(i, j);
    case kSyrk:
      return 2 * nt + 2 * tri + pair(i, j);
    case kGemm:
      return 2 * nt + 3 * tri + i * (i - 1) * (i - 2) / 6 + pair(j, k);
  }
  assert(false);
  return 0;
}

// ---------------------------------------------------------------------------
// Execution

des::Duration TlrCholeskyGraph::execute(const amt::TaskKey& t,
                                        amt::RunContext& ctx) {
  return opts_.mode == TlrOptions::Mode::Real ? exec_real(t, ctx)
                                              : exec_model(t, ctx);
}

des::Duration TlrCholeskyGraph::exec_real(const amt::TaskKey& t,
                                          amt::RunContext& ctx) {
  namespace f = linalg::flops;
  const int nb = opts_.nb;
  const double dnb = nb;
  switch (t.cls) {
    case kDiag: {
      linalg::Matrix d = linalg::sqexp_block(opts_.problem, points_,
                                             t.i * nb, nb, t.i * nb, nb);
      ctx.set_output(0, pack_matrix(d));
      return dense_duration(2.0 * dnb * dnb);
    }
    case kCmpr: {
      const linalg::Matrix a = linalg::sqexp_block(
          opts_.problem, points_, t.i * nb, nb, t.j * nb, nb);
      linalg::LrTile tile = linalg::compress(a, copts_);
      if (t.j == 0) {
        result_.u[{t.i, 0}] = tile.u;
        ctx.set_output(0, pack_matrix(tile.u));
        ctx.set_output(1, pack_matrix(tile.v));
      } else {
        ctx.set_output(0, pack_lr(tile));
      }
      return lr_duration(4.0 * dnb * dnb * tile.rank());
    }
    case kPotrf: {
      linalg::Matrix d = unpack_matrix(ctx.input(0));
      const bool ok = linalg::potrf_lower(d);
      assert(ok && "TLR Cholesky hit a non-SPD diagonal tile");
      (void)ok;
      result_.dense[{t.i, t.i}] = d;
      if (num_outputs(t) > 0) ctx.set_output(0, pack_matrix(d));
      return dense_duration(f::potrf(dnb));
    }
    case kTrsm: {
      const linalg::Matrix l = unpack_matrix(ctx.input(0));
      linalg::Matrix v = unpack_matrix(ctx.input(1));
      linalg::trsm_left_lower(l, v);
      result_.v[{t.i, t.j}] = v;
      ctx.set_output(0, pack_matrix(v));
      return kernel_duration(f::lr_trsm(dnb, v.cols()));
    }
    case kSyrk: {
      linalg::Matrix d = unpack_matrix(ctx.input(0));
      linalg::LrTile a;
      a.u = unpack_matrix(ctx.input(1));
      a.v = unpack_matrix(ctx.input(2));
      linalg::lr_syrk(a, d);
      ctx.set_output(0, pack_matrix(d));
      return kernel_duration(f::lr_syrk(dnb, a.rank()));
    }
    case kGemm: {
      linalg::LrTile c = unpack_lr(ctx.input(0));
      linalg::LrTile a, b;
      a.u = unpack_matrix(ctx.input(1));
      a.v = unpack_matrix(ctx.input(2));
      b.u = unpack_matrix(ctx.input(3));
      b.v = unpack_matrix(ctx.input(4));
      const linalg::KernelCost fl =
          f::lr_gemm(dnb, a.rank(), b.rank(), c.rank());
      linalg::lr_gemm(a, b, c, copts_);
      if (t.k == t.j - 1) {
        result_.u[{t.i, t.j}] = c.u;
        ctx.set_output(0, pack_matrix(c.u));
        ctx.set_output(1, pack_matrix(c.v));
      } else {
        ctx.set_output(0, pack_lr(c));
      }
      return kernel_duration(fl);
    }
  }
  assert(false);
  return 0;
}

des::Duration TlrCholeskyGraph::exec_model(const amt::TaskKey& t,
                                           amt::RunContext& ctx) {
  namespace f = linalg::flops;
  const int nb = opts_.nb;
  const double dnb = nb;
  const auto dense_bytes =
      static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb) *
      sizeof(double);
  const auto factor_bytes = [&](int r) {
    return static_cast<std::size_t>(nb) * static_cast<std::size_t>(r) *
           sizeof(double);
  };
  switch (t.cls) {
    case kDiag:
      ctx.set_output(0, amt::DataCopy::virt(dense_bytes));
      return dense_duration(2.0 * dnb * dnb);
    case kCmpr: {
      const int r = model_rank(t.i, t.j);
      if (t.j == 0) {
        ctx.set_output(0, amt::DataCopy::virt(factor_bytes(r)));
        ctx.set_output(1, amt::DataCopy::virt(factor_bytes(r)));
      } else {
        ctx.set_output(0, amt::DataCopy::virt(2 * factor_bytes(r)));
      }
      return lr_duration(4.0 * dnb * dnb * r);
    }
    case kPotrf:
      if (num_outputs(t) > 0) {
        ctx.set_output(0, amt::DataCopy::virt(dense_bytes));
      }
      return dense_duration(f::potrf(dnb));
    case kTrsm: {
      const int r = model_rank(t.i, t.j);
      ctx.set_output(0, amt::DataCopy::virt(factor_bytes(r)));
      return kernel_duration(f::lr_trsm(dnb, r));
    }
    case kSyrk: {
      const int r = model_rank(t.i, t.j);
      ctx.set_output(0, amt::DataCopy::virt(dense_bytes));
      return kernel_duration(f::lr_syrk(dnb, r));
    }
    case kGemm: {
      const int ra = model_rank(t.i, t.k);
      const int rb = model_rank(t.j, t.k);
      const int rc = model_rank(t.i, t.j);
      if (t.k == t.j - 1) {
        ctx.set_output(0, amt::DataCopy::virt(factor_bytes(rc)));
        ctx.set_output(1, amt::DataCopy::virt(factor_bytes(rc)));
      } else {
        ctx.set_output(0, amt::DataCopy::virt(2 * factor_bytes(rc)));
      }
      return kernel_duration(f::lr_gemm(dnb, ra, rb, rc));
    }
  }
  assert(false);
  return 0;
}

// ---------------------------------------------------------------------------
// Verification (real mode)

double TlrCholeskyGraph::verify() const {
  assert(opts_.mode == TlrOptions::Mode::Real);
  const int n = opts_.n;
  const int nb = opts_.nb;
  const int nt = opts_.nt();
  // Assemble L.
  linalg::Matrix l(n, n);
  for (int k = 0; k < nt; ++k) {
    const auto dit = result_.dense.find({k, k});
    assert(dit != result_.dense.end() && "missing diagonal factor tile");
    for (int jj = 0; jj < nb; ++jj) {
      for (int ii = 0; ii < nb; ++ii) {
        l(k * nb + ii, k * nb + jj) = dit->second(ii, jj);
      }
    }
  }
  for (int i = 1; i < nt; ++i) {
    for (int j = 0; j < i; ++j) {
      const auto uit = result_.u.find({i, j});
      const auto vit = result_.v.find({i, j});
      assert(uit != result_.u.end() && vit != result_.v.end());
      linalg::Matrix tile(nb, nb);
      linalg::gemm(1.0, uit->second, linalg::Trans::No, vit->second,
                   linalg::Trans::Yes, 0.0, tile);
      for (int jj = 0; jj < nb; ++jj) {
        for (int ii = 0; ii < nb; ++ii) {
          l(i * nb + ii, j * nb + jj) = tile(ii, jj);
        }
      }
    }
  }
  // Residual against the original matrix.
  linalg::Matrix a =
      linalg::sqexp_block(opts_.problem, points_, 0, n, 0, n);
  linalg::Matrix llt(n, n);
  linalg::gemm(1.0, l, linalg::Trans::No, l, linalg::Trans::Yes, 0.0, llt);
  return linalg::frobenius_diff(llt, a) / linalg::frobenius_norm(a);
}

double TlrCholeskyGraph::mean_offdiag_rank() const {
  const int nt = opts_.nt();
  if (opts_.mode == TlrOptions::Mode::Model) {
    return opts_.rank_model.mean_rank(nt);
  }
  double sum = 0;
  std::uint64_t count = 0;
  for (const auto& [ij, u] : result_.u) {
    sum += u.cols();
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace hicma
