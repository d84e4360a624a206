// Singular value decomposition via one-sided Jacobi rotations, plus the
// Tikhonov-regularized pseudo-inverse the KIFMM uses for its (ill-conditioned)
// check-to-equivalent surface operators.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace eroof::la {

/// Thin SVD A = U diag(s) V^T with U m x n, s descending, V n x n.
struct Svd {
  Matrix u;
  std::vector<double> s;
  Matrix v;
};

/// Computes the thin SVD of `a` (any shape; internally transposes when
/// rows < cols). One-sided Jacobi: slow but robust and dependency-free,
/// plenty for the <= few-hundred-square operators this project builds.
Svd svd(const Matrix& a);

/// Moore-Penrose pseudo-inverse with relative singular-value cutoff `rcond`
/// (singular values below rcond * s_max are treated as zero).
Matrix pinv(const Matrix& a, double rcond = 1e-12);

/// Tikhonov-regularized pseudo-inverse: V diag(s / (s^2 + eps^2 s_max^2)) U^T.
/// This is the standard stabilization for KIFMM equivalent-density solves
/// (Ying, Biros & Zorin 2004 use a backward-stable variant of the same idea).
Matrix pinv_tikhonov(const Matrix& a, double eps);

}  // namespace eroof::la
