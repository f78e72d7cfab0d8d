#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "des/rng.hpp"
#include "linalg/blas.hpp"

namespace {

using linalg::Matrix;
using linalg::svd_jacobi;
using linalg::Trans;

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  des::Rng rng(seed);
  Matrix a(m, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  return a;
}

Matrix reconstruct(const linalg::SvdResult& svd) {
  const int k = static_cast<int>(svd.s.size());
  Matrix us = svd.u;
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < us.rows(); ++i) {
      us(i, j) *= svd.s[static_cast<std::size_t>(j)];
    }
  }
  Matrix a(svd.u.rows(), svd.v.rows());
  linalg::gemm(1.0, us, Trans::No, svd.v, Trans::Yes, 0.0, a);
  return a;
}

class SvdShapes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SvdShapes, ReconstructsInput) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 17);
  const auto svd = svd_jacobi(a);
  EXPECT_LT(linalg::frobenius_diff(reconstruct(svd), a), 1e-10);
}

TEST_P(SvdShapes, SingularValuesSortedAndNonNegative) {
  const auto [m, n] = GetParam();
  const auto svd = svd_jacobi(random_matrix(m, n, 18));
  for (std::size_t i = 0; i < svd.s.size(); ++i) {
    EXPECT_GE(svd.s[i], 0.0);
    if (i > 0) {
      EXPECT_LE(svd.s[i], svd.s[i - 1]);
    }
  }
}

TEST_P(SvdShapes, FactorsAreOrthonormal) {
  const auto [m, n] = GetParam();
  const auto svd = svd_jacobi(random_matrix(m, n, 19));
  const int k = static_cast<int>(svd.s.size());
  Matrix utu(k, k), vtv(k, k);
  linalg::gemm(1.0, svd.u, Trans::Yes, svd.u, Trans::No, 0.0, utu);
  linalg::gemm(1.0, svd.v, Trans::Yes, svd.v, Trans::No, 0.0, vtv);
  EXPECT_LT(linalg::frobenius_diff(utu, Matrix::identity(k)), 1e-9);
  EXPECT_LT(linalg::frobenius_diff(vtv, Matrix::identity(k)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::make_tuple(8, 8),
                                           std::make_tuple(16, 5),
                                           std::make_tuple(5, 16),
                                           std::make_tuple(1, 1),
                                           std::make_tuple(20, 20)));

TEST(Svd, ExactLowRankMatrixHasTinyTrailingValues) {
  // A = x y^T has rank 1.
  const Matrix x = random_matrix(12, 1, 20);
  const Matrix y = random_matrix(9, 1, 21);
  Matrix a(12, 9);
  linalg::gemm(1.0, x, Trans::No, y, Trans::Yes, 0.0, a);
  const auto svd = svd_jacobi(a);
  EXPECT_GT(svd.s[0], 0.1);
  for (std::size_t i = 1; i < svd.s.size(); ++i) {
    EXPECT_LT(svd.s[i], 1e-10 * svd.s[0]);
  }
}

TEST(Svd, DiagonalMatrixGivesItsEntries) {
  Matrix a(4, 4);
  a(0, 0) = 4;
  a(1, 1) = 3;
  a(2, 2) = 2;
  a(3, 3) = 1;
  const auto svd = svd_jacobi(a);
  ASSERT_EQ(svd.s.size(), 4u);
  EXPECT_NEAR(svd.s[0], 4, 1e-12);
  EXPECT_NEAR(svd.s[1], 3, 1e-12);
  EXPECT_NEAR(svd.s[2], 2, 1e-12);
  EXPECT_NEAR(svd.s[3], 1, 1e-12);
}

}  // namespace
