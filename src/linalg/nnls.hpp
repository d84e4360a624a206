// Non-negative least squares: min ||A x - b||_2 subject to x >= 0.
//
// This is the fitting procedure the paper applies to its DVFS-aware energy
// roofline (Section II-C): the unknowns are physical energy coefficients, so
// non-negativity is the right prior. Every fit in the toolkit -- the eq.-9
// energy model, its streaming refresh, the time model, the fixed-cost
// ablation -- goes through the one path below: rows of A are accumulated
// into the normal equations, then the classic Lawson-Hanson active-set
// algorithm (Solving Least Squares Problems, 1974) runs on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace eroof::la {

/// Result of an NNLS solve.
struct NnlsResult {
  std::vector<double> x;      ///< the non-negative minimizer
  double residual_norm = 0;   ///< ||A x - b||_2 as the normal equations see it
  bool converged = false;     ///< false only if the iteration cap was hit
};

/// The normal equations G = A^T A, A^T b and b^T b of a least-squares
/// problem with `cols` unknowns, accumulated one row of A at a time with
/// an optional exponential forgetting factor, and the one non-negative solve
/// over them.
///
/// Only the Gram upper triangle is accumulated; the solve mirrors it. A
/// batch fit is the stream at forgetting 1: the accumulation order is the
/// row order, so the same rows give the same bits either way.
class NormalEquations {
 public:
  /// `forgetting` in (0, 1]: every add() first decays the accumulated
  /// system by it, so a row of age k carries weight forgetting^k.
  explicit NormalEquations(std::size_t cols, double forgetting = 1.0);

  /// Decay, then accumulate the rank-1 update of one row of A (`cols()`
  /// entries) with right-hand side `y`.
  void add(std::span<const double> row, double y);

  /// Folds `other`'s system in at weight `a`: G += a G_other, and likewise
  /// A^T b, b^T b and weight(); rows() adds up. Requires equal widths.
  void add_scaled(const NormalEquations& other, double a);

  /// Lawson-Hanson on the accumulated system. The columns are first
  /// equilibrated to unit norm from the Gram diagonal, sqrt(G_jj) (without
  /// scaling, counts of ~1e8 next to times of ~1e-1 would make the dual
  /// tolerance meaningless); the returned x is un-scaled. Each passive-set
  /// step is an O(k^3) Cholesky on a k x k Gram submatrix, retried once
  /// with a tiny relative ridge when the submatrix is numerically
  /// semi-definite.
  ///
  /// Entries of the scaled gradient A^T(b - Ax) up to 1e-10 count as
  /// non-positive in the dual feasibility test; the active-set iterations
  /// are capped at 3 * cols + 10.
  ///
  /// residual_norm is sqrt(b^T b - 2 x.A^T b + x.G x), clamped at 0. The
  /// three terms cancel, so it has a floor of about sqrt(eps * b^T b) even
  /// when x is exact: on a consistent 40 x 6 problem with b^T b = 496
  /// (sqrt(eps b^T b) = 3.3e-7) the solve returns x within 1.4e-14 and a
  /// true ||A x - b|| of 3.7e-14, but reports 2.4e-7. Compute ||A x - b||
  /// from A when the exact residual of a near-consistent problem matters.
  NnlsResult solve() const;

  std::size_t cols() const { return cols_; }
  /// Total decayed sample weight (sum of forgetting^age over rows).
  double weight() const { return weight_; }
  /// Rows ever accumulated (not decayed).
  std::uint64_t rows() const { return rows_; }

 private:
  std::size_t cols_ = 0;
  double forgetting_ = 1.0;
  Matrix gram_;  ///< upper triangle live; mirrored by solve()
  std::vector<double> atb_;
  double btb_ = 0;
  double weight_ = 0;
  std::uint64_t rows_ = 0;
};

}  // namespace eroof::la
