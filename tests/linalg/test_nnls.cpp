#include "linalg/nnls.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace eroof::la {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(0.0, 1.0);
  return a;
}

// min ||A x - b|| s.t. x >= 0, through the one path every fit takes: rows
// accumulated into the normal equations, then the Lawson-Hanson solve.
NnlsResult solve_rows(const Matrix& a, std::span<const double> b) {
  NormalEquations eq(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) eq.add(a.row(i), b[i]);
  return eq.solve();
}

// The true ||A x - b||, from A (the solver's residual_norm has a
// cancellation floor; see NormalEquations::solve).
double residual(const Matrix& a, std::span<const double> x,
                std::span<const double> b) {
  const auto ax = matvec(a, x);
  double r2 = 0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r2 += (ax[i] - b[i]) * (ax[i] - b[i]);
  return std::sqrt(r2);
}

TEST(Nnls, RecoversNonNegativePlantedSolution) {
  const Matrix a = random_matrix(40, 6, 1);
  const std::vector<double> x_true{0.5, 2.0, 0.0, 1.25, 3.0, 0.1};
  const auto b = matvec(a, x_true);
  const NnlsResult r = solve_rows(a, b);
  ASSERT_TRUE(r.converged);
  for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(r.x[j], x_true[j], 1e-8);
  EXPECT_LT(residual(a, r.x, b), 1e-8);
}

TEST(Nnls, MatchesUnconstrainedWhenSolutionIsInterior) {
  // Consistent right-hand side with a strictly positive planted x: the
  // unconstrained least-squares solution is x_true itself.
  const Matrix a = random_matrix(30, 4, 2);
  const std::vector<double> x_true{1.0, 2.0, 3.0, 4.0};
  const auto b = matvec(a, x_true);
  const NnlsResult r = solve_rows(a, b);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(r.x[j], x_true[j], 1e-8);
}

TEST(Nnls, ClampsNegativeComponent) {
  // b is best approximated with a negative coefficient on column 1;
  // NNLS must return 0 there instead.
  Matrix a{{1, 0}, {0, 1}, {0, 0}};
  const std::vector<double> b{2.0, -3.0, 0.0};
  const NnlsResult r = solve_rows(a, b);
  EXPECT_NEAR(r.x[0], 2.0, 1e-10);
  EXPECT_DOUBLE_EQ(r.x[1], 0.0);
  EXPECT_NEAR(residual(a, r.x, b), 3.0, 1e-10);
}

TEST(Nnls, KktConditionsHoldOnRandomProblems) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Matrix a = random_matrix(25, 5, 100 + seed);
    util::Rng rng(200 + seed);
    std::vector<double> b(25);
    for (auto& v : b) v = rng.uniform(-1, 1);
    const NnlsResult r = solve_rows(a, b);
    ASSERT_TRUE(r.converged) << "seed " << seed;

    // Feasibility.
    for (double v : r.x) EXPECT_GE(v, 0.0);

    // Stationarity: gradient w = A^T (b - A x) must be <= 0 where x = 0
    // and ~0 where x > 0 (KKT complementary slackness).
    const auto ax = matvec(a, r.x);
    std::vector<double> res(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) res[i] = b[i] - ax[i];
    const auto w = matvec(a.transposed(), res);
    for (std::size_t j = 0; j < w.size(); ++j) {
      if (r.x[j] > 1e-10)
        EXPECT_NEAR(w[j], 0.0, 1e-7) << "seed " << seed << " col " << j;
      else
        EXPECT_LE(w[j], 1e-7) << "seed " << seed << " col " << j;
    }
  }
}

TEST(Nnls, ZeroRhsGivesZeroSolution) {
  const Matrix a = random_matrix(10, 3, 7);
  const std::vector<double> b(10, 0.0);
  const NnlsResult r = solve_rows(a, b);
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(r.converged);
}

TEST(Nnls, AllNegativeRhsGivesZeroSolution) {
  // Columns are non-negative, b is negative: the optimum is x = 0.
  const Matrix a = random_matrix(10, 3, 8);
  const std::vector<double> b(10, -1.0);
  const NnlsResult r = solve_rows(a, b);
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Nnls, WorksWithCollinearish) {
  // Two nearly identical columns; NNLS should still converge and fit well.
  Matrix a(20, 2);
  util::Rng rng(9);
  for (std::size_t i = 0; i < 20; ++i) {
    a(i, 0) = rng.uniform(0.5, 1.0);
    a(i, 1) = a(i, 0) * (1.0 + 1e-6 * rng.uniform());
  }
  const std::vector<double> x_true{1.0, 1.0};
  const auto b = matvec(a, x_true);
  const NnlsResult r = solve_rows(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual(a, r.x, b), 1e-6);
}

TEST(Nnls, EquilibrationRecoversPlantedSolutionAcrossElevenDecades) {
  // Column norms from 1e-3 to 1e8, the time model's spread, and a weak
  // right-hand side (entries ~1e-8). Unscaled, the dual of the 1e-3 column
  // would sit below the tolerance, that column would never enter and the
  // others would absorb its share (errors of ~50% of kMag). The solve's
  // equilibration makes the tolerance relative to each column's norm.
  constexpr double kMag = 1e-8;
  const std::vector<double> col_scale{1e-3, 1e-1, 1e2, 1e4, 1e6, 1e8};
  Matrix a = random_matrix(40, 6, 11);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) *= col_scale[j];
  // Planted against the unit-scale columns, so every column carries
  // comparable weight in b.
  const std::vector<double> x_scaled{0.5 * kMag, 2.0 * kMag, 0.0,
                                     1.25 * kMag, 3.0 * kMag, 0.1 * kMag};
  std::vector<double> x_true(6);
  for (std::size_t j = 0; j < 6; ++j) x_true[j] = x_scaled[j] / col_scale[j];
  const auto b = matvec(a, x_true);
  const NnlsResult r = solve_rows(a, b);
  ASSERT_TRUE(r.converged);
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(r.x[j] * col_scale[j], x_scaled[j], 1e-8 * kMag)
        << "col " << j;
  for (double v : r.x) EXPECT_GE(v, 0.0);
}

}  // namespace
}  // namespace eroof::la
