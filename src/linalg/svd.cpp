#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/require.hpp"

namespace eroof::la {
namespace {

/// Plane rotation of two length-`len` columns: (x, y) <- (c x - s y, s x + c y).
void rotate(double* x, double* y, std::size_t len, double c, double s) {
  for (std::size_t i = 0; i < len; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// One-sided Jacobi on a tall (m >= n) matrix: orthogonalizes columns of a
// working copy W by plane rotations accumulated into V; on convergence the
// column norms of W are the singular values and W's normalized columns are U.
//
// W and V are held column-contiguous (column j of W is w[j*m, (j+1)*m)), so
// every dot product and rotation streams two unit-stride spans. The scalar
// loops visit i in ascending order exactly as a row-major sweep would, so
// the factors are bitwise those of the textbook formulation.
Svd svd_tall(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<double> w(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) w[j * m + i] = row[j];
  }
  std::vector<double> v(n * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) v[j * n + j] = 1.0;

  const double tol = 1e-14;
  const int max_sweeps = 60;

  // A sweep that rotates nothing leaves W and V as they are, so every later
  // sweep would repeat it: the first idle sweep ends the iteration with the
  // factors bitwise those of running all max_sweeps.
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* wp = w.data() + p * m;
      double* vp = v.data() + p * n;
      for (std::size_t q = p + 1; q < n; ++q) {
        double* wq = w.data() + q * m;
        double alpha = 0;
        double beta = 0;
        double gamma = 0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += wp[i] * wp[i];
          beta += wq[i] * wq[i];
          gamma += wp[i] * wq[i];
        }
        if (alpha * beta == 0.0) continue;
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta)) continue;

        // Jacobi rotation zeroing the (p,q) inner product.
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotate(wp, wq, m, c, s);
        rotate(vp, v.data() + q * n, n, c, s);
        rotated = true;
      }
    }
    if (!rotated) break;
  }

  // Extract singular values (column norms) and normalize U's columns.
  std::vector<double> s(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* wj = w.data() + j * m;
    double norm = 0;
    for (std::size_t i = 0; i < m; ++i) norm += wj[i] * wj[i];
    s[j] = std::sqrt(norm);
  }

  // Sort descending (stable permutation of columns of W and V).
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&s](std::size_t i, std::size_t j) { return s[i] > s[j]; });

  Svd out;
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  out.s.resize(n);
  for (std::size_t jj = 0; jj < n; ++jj) {
    const std::size_t j = perm[jj];
    out.s[jj] = s[j];
    const double inv = s[j] > 0 ? 1.0 / s[j] : 0.0;
    for (std::size_t i = 0; i < m; ++i) out.u.row(i)[jj] = w[j * m + i] * inv;
    for (std::size_t i = 0; i < n; ++i) out.v.row(i)[jj] = v[j * n + i];
  }
  return out;
}

}  // namespace

Svd svd(const Matrix& a) {
  EROOF_REQUIRE(a.rows() > 0 && a.cols() > 0);
  if (a.rows() >= a.cols()) return svd_tall(a);
  // A = U S V^T  <=>  A^T = V S U^T: factor the transpose and swap factors.
  Svd t = svd_tall(a.transposed());
  Svd out;
  out.u = std::move(t.v);
  out.s = std::move(t.s);
  out.v = std::move(t.u);
  return out;
}

namespace {

Matrix pinv_from_svd(const Svd& f, std::vector<double> sinv) {
  // A+ = V diag(sinv) U^T, assembled without forming diag explicitly:
  // out(i, j) = sum_l (v(i, l) sinv[l]) u(j, l), over the row spans of V and
  // U in ascending l.
  const std::size_t n = f.v.rows();
  const std::size_t m = f.u.rows();
  const std::size_t k = f.s.size();
  Matrix out(n, m);
  std::vector<double> vs(k);
  for (std::size_t i = 0; i < n; ++i) {
    const auto vrow = f.v.row(i);
    for (std::size_t l = 0; l < k; ++l) vs[l] = vrow[l] * sinv[l];
    const auto orow = out.row(i);
    for (std::size_t j = 0; j < m; ++j) {
      const auto urow = f.u.row(j);
      double acc = 0;
      for (std::size_t l = 0; l < k; ++l) acc += vs[l] * urow[l];
      orow[j] = acc;
    }
  }
  return out;
}

}  // namespace

Matrix pinv(const Matrix& a, double rcond) {
  Svd f = svd(a);
  const double cutoff = rcond * (f.s.empty() ? 0.0 : f.s.front());
  std::vector<double> sinv(f.s.size());
  for (std::size_t i = 0; i < f.s.size(); ++i)
    sinv[i] = f.s[i] > cutoff ? 1.0 / f.s[i] : 0.0;
  return pinv_from_svd(f, std::move(sinv));
}

Matrix pinv_tikhonov(const Matrix& a, double eps) {
  EROOF_REQUIRE(eps > 0);
  Svd f = svd(a);
  const double smax = f.s.empty() ? 0.0 : f.s.front();
  const double lambda2 = (eps * smax) * (eps * smax);
  std::vector<double> sinv(f.s.size());
  for (std::size_t i = 0; i < f.s.size(); ++i)
    sinv[i] = f.s[i] / (f.s[i] * f.s[i] + lambda2);
  return pinv_from_svd(f, std::move(sinv));
}

}  // namespace eroof::la
