#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_support.hpp"
#include "util/rng.hpp"

namespace eroof::la {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
  return a;
}

Matrix reconstruct(const Svd& f) {
  Matrix s(f.s.size(), f.s.size());
  for (std::size_t i = 0; i < f.s.size(); ++i) s(i, i) = f.s[i];
  return f.u * s * f.v.transposed();
}

class SvdShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdShapes, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), 42);
  const Svd f = svd(a);
  EXPECT_LT(reconstruct(f).max_abs_diff(a), 1e-10);

  const std::size_t k = std::min(m, n);
  const Matrix utu = f.u.transposed() * f.u;
  const Matrix vtv = f.v.transposed() * f.v;
  EXPECT_LT(utu.max_abs_diff(Matrix::identity(k)), 1e-10);
  EXPECT_LT(vtv.max_abs_diff(Matrix::identity(k)), 1e-10);

  // Singular values descending and non-negative.
  for (std::size_t i = 0; i + 1 < f.s.size(); ++i)
    EXPECT_GE(f.s[i], f.s[i + 1]);
  EXPECT_GE(f.s.back(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{5, 5},
                                           std::pair{9, 4}, std::pair{4, 9},
                                           std::pair{20, 7},
                                           std::pair{7, 20}));

TEST(Svd, KnownDiagonalMatrix) {
  Matrix a{{3, 0}, {0, -2}};
  const Svd f = svd(a);
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
}

TEST(Svd, RankOneMatrix) {
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      a(i, j) = static_cast<double>((i + 1) * (j + 1));
  const Svd f = svd(a);
  EXPECT_GT(f.s[0], 1.0);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_NEAR(f.s[i], 0.0, 1e-10);
}

TEST(Pinv, MoorePenroseIdentities) {
  const Matrix a = random_matrix(8, 5, 3);
  const Matrix ap = pinv(a);
  // A A+ A = A and A+ A A+ = A+.
  EXPECT_LT((a * ap * a).max_abs_diff(a), 1e-9);
  EXPECT_LT((ap * a * ap).max_abs_diff(ap), 1e-9);
}

TEST(Pinv, InverseForWellConditionedSquare) {
  Matrix a{{4, 1}, {2, 3}};
  const Matrix ap = pinv(a);
  EXPECT_LT((a * ap).max_abs_diff(Matrix::identity(2)), 1e-12);
}

TEST(Pinv, RankDeficientHandledByCutoff) {
  Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      a(i, j) = static_cast<double>(i + 1);  // rank 1
  const Matrix ap = pinv(a, 1e-10);
  // Pseudo-inverse of a rank-1 matrix stays bounded and satisfies A A+ A = A.
  EXPECT_LT((a * ap * a).max_abs_diff(a), 1e-9);
  EXPECT_LT(ap.frobenius_norm(), 10.0);
}

TEST(PinvTikhonov, ApproachesPinvAsEpsShrinks) {
  const Matrix a = random_matrix(6, 6, 9);
  const Matrix exact = pinv(a);
  const Matrix reg = pinv_tikhonov(a, 1e-10);
  EXPECT_LT(reg.max_abs_diff(exact), 1e-6);
}

TEST(PinvTikhonov, RegularizationDampsSmallSingularValues) {
  // Diagonal with one tiny singular value: the regularized inverse must not
  // blow it up to 1/s.
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-12;
  const Matrix reg = pinv_tikhonov(a, 1e-4);
  EXPECT_LT(std::abs(reg(1, 1)), 1e13);  // far below 1/1e-12 scale blow-up
  EXPECT_NEAR(reg(0, 0), 1.0, 1e-6);
}

// Golden bits of the transposed (rows < cols) branch: factors and both
// pseudo-inverses of a wide random matrix, recorded from the row-major
// Jacobi sweep. The fmm golden suite covers the square KIFMM solves.
TEST(SvdGolden, WideRandomMatrixFactorsAndPseudoInverses) {
  const Matrix a = random_matrix(24, 61, 2016);
  const Svd f = svd(a);
  GoldenHash h;
  h.add(f.u);
  h.add(f.s);
  h.add(f.v);
  h.add(pinv(a));
  h.add(pinv_tikhonov(a, 1e-10));
  EXPECT_EQ(h.value(), 0x595260f7da01fb57ULL);
}

}  // namespace
}  // namespace eroof::la
