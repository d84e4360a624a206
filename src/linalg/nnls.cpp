#include "linalg/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace eroof::la {
namespace {

// Solves G_PP z_P = atb_P for the passive subset via an in-place Cholesky on
// the k x k Gram submatrix, returning a dense n-vector with zeros elsewhere.
// Gram submatrices can drift to numerical semi-definiteness as the active set
// grows, so a failed pivot is retried once with a tiny relative ridge.
std::vector<double> solve_passive_gram(const Matrix& g,
                                       std::span<const double> atb,
                                       const std::vector<std::size_t>& passive) {
  const std::size_t k = passive.size();
  std::vector<double> sub(k * k);
  std::vector<double> rhs(k);
  double diag_scale = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) sub[i * k + j] = g(passive[i], passive[j]);
    rhs[i] = atb[passive[i]];
    diag_scale = std::max(diag_scale, sub[i * k + i]);
  }

  auto factor = [&](std::vector<double>& l) -> bool {
    // Lower-triangular Cholesky, in place over the packed k x k buffer.
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double s = l[i * k + j];
        for (std::size_t p = 0; p < j; ++p) s -= l[i * k + p] * l[j * k + p];
        if (i == j) {
          if (s <= 0.0) return false;
          l[i * k + i] = std::sqrt(s);
        } else {
          l[i * k + j] = s / l[j * k + j];
        }
      }
    }
    return true;
  };

  std::vector<double> l = sub;
  if (!factor(l)) {
    const double ridge = std::max(diag_scale, 1.0) * 1e-12;
    l = sub;
    for (std::size_t i = 0; i < k; ++i) l[i * k + i] += ridge;
    EROOF_REQUIRE(factor(l));
  }

  // Forward then back substitution.
  std::vector<double> y(k);
  for (std::size_t i = 0; i < k; ++i) {
    double s = rhs[i];
    for (std::size_t p = 0; p < i; ++p) s -= l[i * k + p] * y[p];
    y[i] = s / l[i * k + i];
  }
  std::vector<double> z(k);
  for (std::size_t ii = k; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t p = ii + 1; p < k; ++p) s -= l[p * k + ii] * z[p];
    z[ii] = s / l[ii * k + ii];
  }

  std::vector<double> full(g.cols(), 0.0);
  for (std::size_t j = 0; j < k; ++j) full[passive[j]] = z[j];
  return full;
}

// Lawson-Hanson on the (mirrored, equilibrated) normal equations.
NnlsResult lawson_hanson(const Matrix& g, std::span<const double> atb,
                         double btb) {
  constexpr double kTol = 1e-10;
  const std::size_t n = g.cols();
  const int max_iter = static_cast<int>(3 * n) + 10;

  NnlsResult out;
  out.x.assign(n, 0.0);
  int iterations = 0;

  std::vector<bool> in_passive(n, false);
  std::vector<std::size_t> passive;

  // Dual vector w = A^T(b - A x) = atb - G x; with x = 0, w = atb.
  std::vector<double> w(atb.begin(), atb.end());

  while (iterations < max_iter) {
    double wmax = -std::numeric_limits<double>::infinity();
    std::size_t jmax = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (in_passive[j]) continue;
      if (w[j] > wmax) {
        wmax = w[j];
        jmax = j;
      }
    }
    if (jmax == n || wmax <= kTol) {
      out.converged = true;
      break;
    }

    in_passive[jmax] = true;
    passive.push_back(jmax);

    // Inner loop: solve on the passive set; if any passive coefficient goes
    // non-positive, step back to the feasibility boundary and shrink the set.
    while (true) {
      ++iterations;
      std::vector<double> z = solve_passive_gram(g, atb, passive);

      double alpha = 1.0;
      bool all_positive = true;
      for (std::size_t j : passive) {
        if (z[j] <= 0.0) {
          all_positive = false;
          const double denom = out.x[j] - z[j];
          if (denom > 0) alpha = std::min(alpha, out.x[j] / denom);
        }
      }
      if (all_positive) {
        out.x = std::move(z);
        break;
      }

      for (std::size_t j = 0; j < n; ++j)
        out.x[j] += alpha * (z[j] - out.x[j]);

      // Remove variables that hit zero from the passive set.
      std::vector<std::size_t> keep;
      for (std::size_t j : passive) {
        if (out.x[j] > 1e-12) {
          keep.push_back(j);
        } else {
          out.x[j] = 0.0;
          in_passive[j] = false;
        }
      }
      passive = std::move(keep);
      if (passive.empty()) break;
      if (iterations >= max_iter) break;
    }

    for (std::size_t j = 0; j < n; ++j) {
      double gx = 0.0;
      for (std::size_t p = 0; p < n; ++p) gx += g(j, p) * out.x[p];
      w[j] = atb[j] - gx;
    }
  }

  // ||A x - b||^2 = btb - 2 x.atb + x.G x, clamped against cancellation.
  double xatb = 0.0;
  double xgx = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    xatb += out.x[j] * atb[j];
    double gx = 0.0;
    for (std::size_t p = 0; p < n; ++p) gx += g(j, p) * out.x[p];
    xgx += out.x[j] * gx;
  }
  out.residual_norm = std::sqrt(std::max(0.0, btb - 2.0 * xatb + xgx));
  return out;
}

}  // namespace

NormalEquations::NormalEquations(std::size_t cols, double forgetting)
    : cols_(cols), forgetting_(forgetting), gram_(cols, cols), atb_(cols) {
  EROOF_REQUIRE(cols >= 1);
  EROOF_REQUIRE_MSG(forgetting > 0 && forgetting <= 1.0,
                    "forgetting factor must be in (0, 1]");
}

void NormalEquations::add(std::span<const double> row, double y) {
  EROOF_REQUIRE(row.size() == cols_);
  const std::size_t n = cols_;
  // Raw views: the hot loops below index flat storage, no bounds-checked
  // Matrix accessors.
  std::span<double> g = gram_.data();
  // eroof: hot-begin (streaming rank-1 update: decay-then-accumulate over
  // the upper triangle in row order -- the batch fit is this stream at
  // forgetting 1)
  if (forgetting_ != 1.0) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = j; k < n; ++k) g[j * n + k] *= forgetting_;
    for (std::size_t j = 0; j < n; ++j) atb_[j] *= forgetting_;
    btb_ *= forgetting_;
    weight_ *= forgetting_;
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = j; k < n; ++k) g[j * n + k] += row[j] * row[k];
    atb_[j] += row[j] * y;
  }
  btb_ += y * y;
  weight_ += 1.0;
  ++rows_;
  // eroof: hot-end
}

void NormalEquations::add_scaled(const NormalEquations& other, double a) {
  EROOF_REQUIRE(other.cols_ == cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    for (std::size_t k = j; k < cols_; ++k)
      gram_(j, k) += a * other.gram_(j, k);
    atb_[j] += a * other.atb_[j];
  }
  btb_ += a * other.btb_;
  weight_ += a * other.weight_;
  rows_ += other.rows_;
}

NnlsResult NormalEquations::solve() const {
  EROOF_REQUIRE_MSG(rows_ > 0, "no rows accumulated");
  const std::size_t n = cols_;
  // Column equilibration, read straight off the Gram diagonal:
  // ||col_j||_2 = sqrt(G[j][j]). Scaling maps G'jk = Gjk/(sj sk),
  // (A^T b)'j = (A^T b)j / sj; b^T b is scale-free.
  std::vector<double> scale(n);
  for (std::size_t j = 0; j < n; ++j)
    scale[j] = gram_(j, j) > 0 ? std::sqrt(gram_(j, j)) : 1.0;
  Matrix g(n, n);
  std::vector<double> atb(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = j; k < n; ++k)
      g(k, j) = g(j, k) = gram_(j, k) / (scale[j] * scale[k]);
    atb[j] = atb_[j] / scale[j];
  }

  NnlsResult out = lawson_hanson(g, atb, btb_);
  for (std::size_t j = 0; j < n; ++j) out.x[j] /= scale[j];
  return out;
}

}  // namespace eroof::la
