// Interaction kernels K(x, y) (paper eq. 10).
//
// Kernel independence is the point of the KIFMM: the method only ever
// *evaluates* K, so any non-oscillatory kernel with smooth far field plugs
// in through this interface. Laplace single-layer (the paper's example,
// modeling electrostatics/gravity) is the default; additional kernels
// demonstrate the independence and exercise the operators differently.
#pragma once

#include <memory>
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
  /// fallback loops over eval(); the bundled kernels override it with flat
  /// `#pragma omp simd` implementations.
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
  /// The base-class fallback loops over eval(); the bundled kernels override
  /// it with flat `#pragma omp simd` implementations.
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

/// Laplace single-layer kernel K(x,y) = 1 / (4 pi |x-y|).
class LaplaceKernel final : public Kernel {
 public:
  double eval(const Vec3& x, const Vec3& y) const override;
  void eval_batch(const PointBlock& targets, const PointBlock& sources,
                  const double* density, double* out) const override;
  void eval_mutual(const PointBlock& a, const double* density_a, double* out_a,
                   const PointBlock& b, const double* density_b,
                   double* out_b) const override;
  double flops_per_eval() const override { return 12; }
  std::string name() const override { return "laplace"; }
  bool homogeneous(double* degree) const override {
    if (degree) *degree = -1;
    return true;
  }
};

/// Modified/screened Laplace (Yukawa) kernel exp(-lambda r) / (4 pi r).
class YukawaKernel final : public Kernel {
 public:
  explicit YukawaKernel(double lambda) : lambda_(lambda) {}
  double eval(const Vec3& x, const Vec3& y) const override;
  void eval_batch(const PointBlock& targets, const PointBlock& sources,
                  const double* density, double* out) const override;
  void eval_mutual(const PointBlock& a, const double* density_a, double* out_a,
                   const PointBlock& b, const double* density_b,
                   double* out_b) const override;
  double flops_per_eval() const override { return 20; }
  std::string name() const override { return "yukawa"; }

 private:
  double lambda_;
};

/// Gaussian kernel exp(-|x-y|^2 / (2 sigma^2)) -- smooth and non-singular;
/// a stress test for the equivalent-density solves.
class GaussianKernel final : public Kernel {
 public:
  explicit GaussianKernel(double sigma) : sigma_(sigma) {}
  double eval(const Vec3& x, const Vec3& y) const override;
  void eval_batch(const PointBlock& targets, const PointBlock& sources,
                  const double* density, double* out) const override;
  void eval_mutual(const PointBlock& a, const double* density_a, double* out_a,
                   const PointBlock& b, const double* density_b,
                   double* out_b) const override;
  double flops_per_eval() const override { return 14; }
  std::string name() const override { return "gaussian"; }

 private:
  double sigma_;
};

}  // namespace eroof::fmm
