#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::la {
namespace {

TEST(Matrix, ConstructionZeroInitializes) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), util::ContractError);
}

TEST(Matrix, IdentityMultiplicationIsNeutral) {
  Matrix a{{1, 2}, {3, 4}};
  const Matrix i = Matrix::identity(2);
  EXPECT_EQ((a * i).max_abs_diff(a), 0.0);
  EXPECT_EQ((i * a).max_abs_diff(a), 0.0);
}

TEST(Matrix, MultiplicationKnownResult) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix expect{{19, 22}, {43, 50}};
  EXPECT_EQ((a * b).max_abs_diff(expect), 0.0);
}

TEST(Matrix, MultiplicationShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, util::ContractError);
}

TEST(Matrix, TransposeRoundTrip) {
  util::Rng rng(5);
  Matrix a(4, 7);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 7; ++j) a(i, j) = rng.uniform(-1, 1);
  EXPECT_EQ(a.transposed().transposed().max_abs_diff(a), 0.0);
}

TEST(Matrix, TransposeSwapsIndices) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, AddSubtract) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  Matrix sum{{5, 5}, {5, 5}};
  EXPECT_EQ((a + b).max_abs_diff(sum), 0.0);
  EXPECT_EQ(((a + b) - b).max_abs_diff(a), 0.0);
}

TEST(Matrix, ScalarScale) {
  Matrix a{{1, -2}, {0, 4}};
  Matrix twice{{2, -4}, {0, 8}};
  EXPECT_EQ((2.0 * a).max_abs_diff(twice), 0.0);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a{{3, 4}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(Matrix, MatvecAndTransposedMatvec) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<double> x{1.0, -1.0};
  const auto y = matvec(a, x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);

  const std::vector<double> z{1.0, 0.0, 1.0};
  const auto w = matvec(a.transposed(), z);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 6.0);
  EXPECT_DOUBLE_EQ(w[1], 8.0);
}

TEST(Matrix, OutOfRangeAccessThrows) {
  Matrix a(2, 2);
  EXPECT_THROW(a(2, 0), util::ContractError);
  EXPECT_THROW(a(0, 2), util::ContractError);
}

}  // namespace
}  // namespace eroof::la
