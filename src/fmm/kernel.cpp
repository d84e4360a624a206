#include "fmm/kernel.hpp"

#include <cmath>
#include <numbers>

namespace eroof::fmm {
namespace {

constexpr double kFourPiInv = 1.0 / (4.0 * std::numbers::pi);

/// The mutual block loops of the bundled kernels (see Kernel::eval_mutual).
/// `value(r2)` is K at squared distance r2; `diag` is K(x, x), added once
/// per point of a self block unless it is zero.
template <typename Value>
void mutual_loops(const PointBlock& a, const double* density_a, double* out_a,
                  const PointBlock& b, const double* density_b, double* out_b,
                  double diag, Value value) {
  const bool self = a.x == b.x;
  const double* bx = b.x;
  const double* by = b.y;
  const double* bz = b.z;
  for (std::size_t i = 0; i < a.n; ++i) {
    const double ax = a.x[i];
    const double ay = a.y[i];
    const double az = a.z[i];
    const double da = density_a[i];
    double acc = self && diag != 0.0 ? diag * da : 0.0;
    // eroof-lint: allow(nondet-omp) simd-only reduction, fixed lane order;
    // the out_b stores never touch out_a[i] (j > i on a self block).
#pragma omp simd reduction(+ : acc)
    for (std::size_t j = self ? i + 1 : 0; j < b.n; ++j) {
      const double dx = ax - bx[j];
      const double dy = ay - by[j];
      const double dz = az - bz[j];
      const double k = value(dx * dx + dy * dy + dz * dz);
      acc += k * density_b[j];
      out_b[j] += k * da;
    }
    out_a[i] += acc;
  }
}

}  // namespace

void Kernel::eval_mutual(const PointBlock& a, const double* density_a,
                         double* out_a, const PointBlock& b,
                         const double* density_b, double* out_b) const {
  const bool self = a.x == b.x;
  for (std::size_t i = 0; i < a.n; ++i) {
    const Vec3 s{a.x[i], a.y[i], a.z[i]};
    double acc = self ? eval(s, s) * density_a[i] : 0.0;
    for (std::size_t j = self ? i + 1 : 0; j < b.n; ++j) {
      const double k = eval(s, {b.x[j], b.y[j], b.z[j]});
      acc += k * density_b[j];
      out_b[j] += k * density_a[i];
    }
    out_a[i] += acc;
  }
}

void Kernel::eval_batch(const PointBlock& targets, const PointBlock& sources,
                        const double* density, double* out) const {
  for (std::size_t i = 0; i < targets.n; ++i) {
    const Vec3 t{targets.x[i], targets.y[i], targets.z[i]};
    double acc = 0;
    for (std::size_t j = 0; j < sources.n; ++j)
      acc += eval(t, {sources.x[j], sources.y[j], sources.z[j]}) * density[j];
    out[i] += acc;
  }
}

void LaplaceKernel::eval_batch(const PointBlock& targets,
                               const PointBlock& sources,
                               const double* density, double* out) const {
  const std::size_t nt = targets.n;
  const std::size_t ns = sources.n;
  const double* sx = sources.x;
  const double* sy = sources.y;
  const double* sz = sources.z;
  // eroof: hot-begin (Laplace batched P2M/P2P/P2L/L2P/M2P inner loops)
  for (std::size_t i = 0; i < nt; ++i) {
    const double tx = targets.x[i];
    const double ty = targets.y[i];
    const double tz = targets.z[i];
    double acc = 0;
    // eroof-lint: allow(nondet-omp) simd-only reduction: lane count is fixed
    // at compile time, so the accumulation order never varies across runs or
    // thread counts (verified bitwise by tests/fmm/test_eval_batch.cpp).
#pragma omp simd reduction(+ : acc)
    for (std::size_t j = 0; j < ns; ++j) {
      const double dx = tx - sx[j];
      const double dy = ty - sy[j];
      const double dz = tz - sz[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      // Unconditional divide + select: r2 == 0 yields inf, blended away.
      // Keeping the division out of a branch lets the loop if-convert and
      // vectorize; packed sqrt/div are correctly rounded, so each lane is
      // bitwise identical to eval().
      const double k = kFourPiInv / std::sqrt(r2);
      acc += (r2 == 0.0 ? 0.0 : k) * density[j];
    }
    out[i] += acc;
  }
  // eroof: hot-end
}

void LaplaceKernel::eval_mutual(const PointBlock& a, const double* density_a,
                                double* out_a, const PointBlock& b,
                                const double* density_b, double* out_b) const {
  // eroof: hot-begin (Laplace mutual near-field P2P)
  mutual_loops(a, density_a, out_a, b, density_b, out_b, 0.0, [](double r2) {
    const double k = kFourPiInv / std::sqrt(r2);
    return r2 == 0.0 ? 0.0 : k;
  });
  // eroof: hot-end
}

void YukawaKernel::eval_batch(const PointBlock& targets,
                              const PointBlock& sources, const double* density,
                              double* out) const {
  const std::size_t nt = targets.n;
  const std::size_t ns = sources.n;
  const double* sx = sources.x;
  const double* sy = sources.y;
  const double* sz = sources.z;
  const double lambda = lambda_;
  // eroof: hot-begin (Yukawa batched inner loops)
  for (std::size_t i = 0; i < nt; ++i) {
    const double tx = targets.x[i];
    const double ty = targets.y[i];
    const double tz = targets.z[i];
    double acc = 0;
    // eroof-lint: allow(nondet-omp) simd-only reduction, fixed lane order
#pragma omp simd reduction(+ : acc)
    for (std::size_t j = 0; j < ns; ++j) {
      const double dx = tx - sx[j];
      const double dy = ty - sy[j];
      const double dz = tz - sz[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      const double r = std::sqrt(r2);
      // Branch-free as in the Laplace loop; exp() vectorizes through the
      // glibc simd math declarations when available.
      const double k = kFourPiInv * std::exp(-lambda * r) / r;
      acc += (r2 == 0.0 ? 0.0 : k) * density[j];
    }
    out[i] += acc;
  }
  // eroof: hot-end
}

void YukawaKernel::eval_mutual(const PointBlock& a, const double* density_a,
                               double* out_a, const PointBlock& b,
                               const double* density_b, double* out_b) const {
  const double lambda = lambda_;
  // eroof: hot-begin (Yukawa mutual near-field P2P)
  mutual_loops(a, density_a, out_a, b, density_b, out_b, 0.0,
               [lambda](double r2) {
                 const double r = std::sqrt(r2);
                 const double k = kFourPiInv * std::exp(-lambda * r) / r;
                 return r2 == 0.0 ? 0.0 : k;
               });
  // eroof: hot-end
}

void GaussianKernel::eval_batch(const PointBlock& targets,
                                const PointBlock& sources,
                                const double* density, double* out) const {
  const std::size_t nt = targets.n;
  const std::size_t ns = sources.n;
  const double* sx = sources.x;
  const double* sy = sources.y;
  const double* sz = sources.z;
  const double two_sigma2 = 2.0 * sigma_ * sigma_;
  // eroof: hot-begin (Gaussian batched inner loops)
  for (std::size_t i = 0; i < nt; ++i) {
    const double tx = targets.x[i];
    const double ty = targets.y[i];
    const double tz = targets.z[i];
    double acc = 0;
    // eroof-lint: allow(nondet-omp) simd-only reduction, fixed lane order
#pragma omp simd reduction(+ : acc)
    for (std::size_t j = 0; j < ns; ++j) {
      const double dx = tx - sx[j];
      const double dy = ty - sy[j];
      const double dz = tz - sz[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      acc += std::exp(-r2 / two_sigma2) * density[j];
    }
    out[i] += acc;
  }
  // eroof: hot-end
}

void GaussianKernel::eval_mutual(const PointBlock& a, const double* density_a,
                                 double* out_a, const PointBlock& b,
                                 const double* density_b,
                                 double* out_b) const {
  const double two_sigma2 = 2.0 * sigma_ * sigma_;
  // eroof: hot-begin (Gaussian mutual near-field P2P; K(x, x) = 1 is kept)
  mutual_loops(a, density_a, out_a, b, density_b, out_b, 1.0,
               [two_sigma2](double r2) { return std::exp(-r2 / two_sigma2); });
  // eroof: hot-end
}

la::Matrix Kernel::matrix(std::span<const Vec3> targets,
                          std::span<const Vec3> sources) const {
  la::Matrix k(targets.size(), sources.size());
  for (std::size_t i = 0; i < targets.size(); ++i)
    for (std::size_t j = 0; j < sources.size(); ++j)
      k(i, j) = eval(targets[i], sources[j]);
  return k;
}

double LaplaceKernel::eval(const Vec3& x, const Vec3& y) const {
  const Vec3 d = x - y;
  const double r2 = d.dot(d);
  if (r2 == 0.0) return 0.0;
  return kFourPiInv / std::sqrt(r2);
}

double YukawaKernel::eval(const Vec3& x, const Vec3& y) const {
  const Vec3 d = x - y;
  const double r2 = d.dot(d);
  if (r2 == 0.0) return 0.0;
  const double r = std::sqrt(r2);
  return kFourPiInv * std::exp(-lambda_ * r) / r;
}

double GaussianKernel::eval(const Vec3& x, const Vec3& y) const {
  const Vec3 d = x - y;
  return std::exp(-d.dot(d) / (2.0 * sigma_ * sigma_));
}

}  // namespace eroof::fmm
