#include "fmm/kernel.hpp"

namespace eroof::fmm {
namespace {

/// The batched loops of every radial kernel (see Kernel::eval_batch).
/// `f(r2)` is K at squared distance r2.
template <typename Profile>
void batch_loops(const PointBlock& targets, const PointBlock& sources,
                 const double* density, double* out, Profile f) {
  const std::size_t nt = targets.n;
  const std::size_t ns = sources.n;
  const double* sx = sources.x;
  const double* sy = sources.y;
  const double* sz = sources.z;
  // eroof: hot-begin (batched P2M/P2P/P2L/L2P/M2P inner loops)
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
      acc += f(dx * dx + dy * dy + dz * dz) * density[j];
    }
    out[i] += acc;
  }
  // eroof: hot-end
}

/// The mutual block loops of every radial kernel (see Kernel::eval_mutual).
/// The diagonal of a self block, K(x, x) = f(0), is added once per point
/// unless it is zero.
template <typename Profile>
void mutual_loops(const PointBlock& a, const double* density_a, double* out_a,
                  const PointBlock& b, const double* density_b, double* out_b,
                  Profile f) {
  const bool self = a.x == b.x;
  const double diag = f(0.0);
  const double* bx = b.x;
  const double* by = b.y;
  const double* bz = b.z;
  // eroof: hot-begin (mutual near-field P2P)
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
      const double k = f(dx * dx + dy * dy + dz * dz);
      acc += k * density_b[j];
      out_b[j] += k * da;
    }
    out_a[i] += acc;
  }
  // eroof: hot-end
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

la::Matrix Kernel::matrix(std::span<const Vec3> targets,
                          std::span<const Vec3> sources) const {
  la::Matrix k(targets.size(), sources.size());
  for (std::size_t i = 0; i < targets.size(); ++i)
    for (std::size_t j = 0; j < sources.size(); ++j)
      k(i, j) = eval(targets[i], sources[j]);
  return k;
}

template <typename Derived>
double RadialKernel<Derived>::eval(const Vec3& x, const Vec3& y) const {
  const Vec3 d = x - y;
  return f()(d.dot(d));
}

template <typename Derived>
void RadialKernel<Derived>::eval_batch(const PointBlock& targets,
                                       const PointBlock& sources,
                                       const double* density,
                                       double* out) const {
  batch_loops(targets, sources, density, out, f());
}

template <typename Derived>
void RadialKernel<Derived>::eval_mutual(const PointBlock& a,
                                        const double* density_a, double* out_a,
                                        const PointBlock& b,
                                        const double* density_b,
                                        double* out_b) const {
  mutual_loops(a, density_a, out_a, b, density_b, out_b, f());
}

template class RadialKernel<LaplaceKernel>;
template class RadialKernel<YukawaKernel>;
template class RadialKernel<GaussianKernel>;

}  // namespace eroof::fmm
