// Interaction kernels K(x, y) (paper eq. 10).
//
// Kernel independence is the point of the KIFMM: the method only ever
// *evaluates* K, so any non-oscillatory kernel with smooth far field plugs
// in through this interface. Laplace single-layer (the paper's example,
// modeling electrostatics/gravity) is the default; additional kernels
// demonstrate the independence and exercise the operators differently.
// A radial kernel is one expression: its profile f(r^2) (see RadialKernel).
#pragma once

#include <cmath>
#include <numbers>
#include <string>

#include "fmm/geometry.hpp"
#include "linalg/matrix.hpp"

namespace eroof::fmm {

/// SoA view of a block of points, the unit of batched kernel evaluation.
/// Non-owning; the three coordinate arrays have `n` entries each.
struct PointBlock {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  std::size_t n = 0;
};

/// Abstract interaction kernel.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// K(x, y); must return 0 for x == y (self-interactions are excluded by
  /// convention, matching the direct-sum reference).
  virtual double eval(const Vec3& x, const Vec3& y) const = 0;

  /// Batched accumulation out[i] += sum_j K(t_i, s_j) * density[j] over SoA
  /// coordinate arrays. One virtual call covers a whole target-block x
  /// source-block tile, so the FMM inner loops pay no per-pair dispatch.
  ///
  /// Contract: per-pair kernel values follow eval() exactly (including the
  /// x == y -> 0 convention where the kernel has it), and for each target
  /// the sources are accumulated in index order -- results are independent
  /// of how callers partition targets across threads. The base-class
  /// fallback loops over eval(); RadialKernel overrides it with one flat
  /// `#pragma omp simd` loop shared by the bundled kernels.
  virtual void eval_batch(const PointBlock& targets, const PointBlock& sources,
                          const double* density, double* out) const;

  /// Mutual accumulation over one block pair, each K evaluated once and
  /// scattered both ways:
  ///   out_a[i] += sum_j K(a_i, b_j) * density_b[j]
  ///   out_b[j] += sum_i K(a_i, b_j) * density_a[i]
  /// When `b` is the block `a` itself (same coordinate arrays), each pair
  /// i < j is evaluated once and lands in both outputs, and the diagonal
  /// adds K(a_i, a_i) * density_a[i] once -- zero for the singular kernels,
  /// which skip it.
  ///
  /// Contract: K(x, y) == K(y, x) bitwise and per-pair values follow eval().
  /// Each out_a[i] receives its row sum over the sources in index order as
  /// one add; each out_b[j] accumulates its terms in increasing i. Results
  /// therefore depend only on the order in which a caller visits blocks.
  /// The base-class fallback loops over eval(); RadialKernel overrides it
  /// with one flat `#pragma omp simd` loop shared by the bundled kernels.
  virtual void eval_mutual(const PointBlock& a, const double* density_a,
                           double* out_a, const PointBlock& b,
                           const double* density_b, double* out_b) const;

  /// Dense kernel matrix K[i][j] = K(targets[i], sources[j]).
  la::Matrix matrix(std::span<const Vec3> targets,
                    std::span<const Vec3> sources) const;

  /// Single-precision flop cost of one evaluation on the modeled GPU
  /// (used by the instruction-count instrumentation).
  virtual double flops_per_eval() const = 0;

  virtual std::string name() const = 0;

  /// True if K(ax, ay) = a^degree K(x, y); enables scale-invariance tests.
  virtual bool homogeneous(double* degree) const {
    if (degree) *degree = 0;
    return false;
  }
};

inline constexpr double kFourPiInv = 1.0 / (4.0 * std::numbers::pi);

/// A kernel K(x, y) = f(|x - y|^2), written once as its radial profile f.
///
/// `Derived::profile()` returns a small functor `double operator()(double
/// r2)` holding the kernel's hoisted constants; eval(), eval_batch() and
/// eval_mutual() are all built from it, so the scalar value and each simd
/// lane evaluate the same expression and agree bit for bit. A singular
/// kernel returns 0 at r2 == 0 through an unconditional evaluate-then-select
/// (no branch, so the loops if-convert and vectorize); a self block's
/// diagonal is f(0). The loop bodies live in kernel.cpp, which instantiates
/// them once per bundled kernel.
template <typename Derived>
class RadialKernel : public Kernel {
 public:
  double eval(const Vec3& x, const Vec3& y) const final;
  void eval_batch(const PointBlock& targets, const PointBlock& sources,
                  const double* density, double* out) const final;
  void eval_mutual(const PointBlock& a, const double* density_a, double* out_a,
                   const PointBlock& b, const double* density_b,
                   double* out_b) const final;

 private:
  auto f() const { return static_cast<const Derived&>(*this).profile(); }
};

// Adding a kernel: derive from RadialKernel<YourKernel>, write its profile()
// in the style below plus flops_per_eval() and name(), and instantiate it
// with one `template class RadialKernel<YourKernel>;` line in kernel.cpp.

/// Laplace single-layer kernel K(x,y) = 1 / (4 pi |x-y|).
class LaplaceKernel final : public RadialKernel<LaplaceKernel> {
 public:
  auto profile() const {
    return [](double r2) {
      const double k = kFourPiInv / std::sqrt(r2);
      return r2 == 0.0 ? 0.0 : k;
    };
  }
  double flops_per_eval() const override { return 12; }
  std::string name() const override { return "laplace"; }
  bool homogeneous(double* degree) const override {
    if (degree) *degree = -1;
    return true;
  }
};

/// Modified/screened Laplace (Yukawa) kernel exp(-lambda r) / (4 pi r).
class YukawaKernel final : public RadialKernel<YukawaKernel> {
 public:
  explicit YukawaKernel(double lambda) : lambda_(lambda) {}
  auto profile() const {
    return [lambda = lambda_](double r2) {
      const double r = std::sqrt(r2);
      const double k = kFourPiInv * std::exp(-lambda * r) / r;
      return r2 == 0.0 ? 0.0 : k;
    };
  }
  double flops_per_eval() const override { return 20; }
  std::string name() const override { return "yukawa"; }

 private:
  double lambda_;
};

/// Gaussian kernel exp(-|x-y|^2 / (2 sigma^2)) -- smooth and non-singular
/// (K(x, x) = 1); a stress test for the equivalent-density solves.
class GaussianKernel final : public RadialKernel<GaussianKernel> {
 public:
  explicit GaussianKernel(double sigma) : sigma_(sigma) {}
  auto profile() const {
    return [two_sigma2 = 2.0 * sigma_ * sigma_](double r2) {
      return std::exp(-r2 / two_sigma2);
    };
  }
  double flops_per_eval() const override { return 14; }
  std::string name() const override { return "gaussian"; }

 private:
  double sigma_;
};

}  // namespace eroof::fmm
