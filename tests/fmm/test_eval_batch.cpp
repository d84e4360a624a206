// Batched kernel evaluation (Kernel::eval_batch, Kernel::eval_mutual)
// against the scalar eval() contract: per-pair values bitwise-identical,
// kernels bitwise symmetric, self-interaction convention preserved, and the
// FMM end-to-end accuracy unchanged whether a kernel supplies simd
// implementations or rides the base-class fallbacks.
#include "fmm/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "fmm/direct.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

/// SoA copy of an AoS point set plus a PointBlock view over it.
struct SoaPoints {
  std::vector<double> x, y, z;
  explicit SoaPoints(std::span<const Vec3> pts) {
    x.reserve(pts.size());
    y.reserve(pts.size());
    z.reserve(pts.size());
    for (const auto& p : pts) {
      x.push_back(p.x);
      y.push_back(p.y);
      z.push_back(p.z);
    }
  }
  PointBlock block() const { return {x.data(), y.data(), z.data(), x.size()}; }
};

std::vector<Vec3> random_points(std::size_t n, util::Rng& rng) {
  std::vector<Vec3> pts(n);
  for (auto& p : pts)
    p = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return pts;
}

/// Single-source batches with unit density isolate one K(t, s) per output:
/// those per-pair values must match eval() bit for bit (same expression
/// structure in both paths, no accumulation involved).
void expect_per_pair_bitwise(const Kernel& kernel) {
  util::Rng rng(11);
  const auto targets = random_points(64, rng);
  const auto sources = random_points(16, rng);
  const SoaPoints t(targets);
  for (const auto& s : sources) {
    const double sx = s.x;
    const double sy = s.y;
    const double sz = s.z;
    const PointBlock src{&sx, &sy, &sz, 1};
    const double density = 1.0;
    std::vector<double> out(targets.size(), 0.0);
    kernel.eval_batch(t.block(), src, &density, out.data());
    for (std::size_t i = 0; i < targets.size(); ++i)
      EXPECT_EQ(out[i], kernel.eval(targets[i], s))
          << kernel.name() << " target " << i;
  }
}

TEST(EvalBatch, LaplacePerPairBitwiseMatchesEval) {
  expect_per_pair_bitwise(LaplaceKernel{});
}

TEST(EvalBatch, YukawaPerPairBitwiseMatchesEval) {
  expect_per_pair_bitwise(YukawaKernel{1.5});
}

TEST(EvalBatch, GaussianPerPairBitwiseMatchesEval) {
  expect_per_pair_bitwise(GaussianKernel{0.7});
}

TEST(EvalBatch, CoincidentPointsFollowEvalConvention) {
  // Singular kernels define K(x, x) = 0 (self-interaction exclusion); the
  // non-singular Gaussian evaluates to exp(0) = 1. The batch path must
  // reproduce both, not trap on the r = 0 division.
  const Vec3 p{0.25, -0.5, 0.125};
  const double px = p.x;
  const double py = p.y;
  const double pz = p.z;
  const PointBlock b{&px, &py, &pz, 1};
  const double density = 3.0;
  const LaplaceKernel laplace;
  const YukawaKernel yukawa{2.0};
  const GaussianKernel gaussian{0.5};
  for (const Kernel* k : {static_cast<const Kernel*>(&laplace),
                          static_cast<const Kernel*>(&yukawa),
                          static_cast<const Kernel*>(&gaussian)}) {
    double out = 0.0;
    k->eval_batch(b, b, &density, &out);
    EXPECT_EQ(out, k->eval(p, p) * density) << k->name();
  }
  EXPECT_EQ(laplace.eval(p, p), 0.0);
  EXPECT_EQ(yukawa.eval(p, p), 0.0);
  EXPECT_EQ(gaussian.eval(p, p), 1.0);
}

TEST(EvalBatch, AccumulatesOverSourcesAndPreservesPriorOutput) {
  // Multi-source tiles: out[i] += sum_j K * density[j]. The simd reduction
  // may reassociate the sum, so compare to the scalar sum in double
  // precision terms rather than bitwise.
  const LaplaceKernel kernel;
  util::Rng rng(5);
  const auto targets = random_points(33, rng);
  const auto sources = random_points(57, rng);
  std::vector<double> dens(sources.size());
  for (auto& d : dens) d = rng.uniform(-2, 2);
  const SoaPoints t(targets);
  const SoaPoints s(sources);

  std::vector<double> out(targets.size(), 7.5);  // pre-existing partials
  kernel.eval_batch(t.block(), s.block(), dens.data(), out.data());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    double ref = 7.5;
    for (std::size_t j = 0; j < sources.size(); ++j)
      ref += kernel.eval(targets[i], sources[j]) * dens[j];
    EXPECT_NEAR(out[i], ref, 1e-13 * std::abs(ref) + 1e-15) << "target " << i;
  }
}

/// Laplace by a kernel that does *not* override eval_batch: exercises the
/// base-class scalar fallback end to end (third-party kernels plug in with
/// just eval()).
class ScalarLaplace final : public Kernel {
 public:
  double eval(const Vec3& x, const Vec3& y) const override {
    const double dx = x.x - y.x;
    const double dy = x.y - y.y;
    const double dz = x.z - y.z;
    const double r2 = dx * dx + dy * dy + dz * dz;
    if (r2 == 0.0) return 0.0;
    return 1.0 / (4.0 * std::numbers::pi * std::sqrt(r2));
  }
  double flops_per_eval() const override { return 12; }
  std::string name() const override { return "laplace_scalar"; }
  bool homogeneous(double* degree) const override {
    if (degree) *degree = -1;
    return true;
  }
};

TEST(EvalBatch, FallbackAccumulatesInIndexOrder) {
  // The base-class loop promises strict index-order accumulation, which is
  // reproducible exactly.
  const ScalarLaplace kernel;
  util::Rng rng(9);
  const auto targets = random_points(21, rng);
  const auto sources = random_points(40, rng);
  std::vector<double> dens(sources.size());
  for (auto& d : dens) d = rng.uniform(-1, 1);
  const SoaPoints t(targets);
  const SoaPoints s(sources);
  std::vector<double> out(targets.size(), 0.0);
  kernel.eval_batch(t.block(), s.block(), dens.data(), out.data());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    double ref = 0.0;
    for (std::size_t j = 0; j < sources.size(); ++j)
      ref += kernel.eval(targets[i], sources[j]) * dens[j];
    EXPECT_EQ(out[i], ref) << "target " << i;
  }
}

// ---------------------------------------------------------------------------
// Kernel::eval_mutual: each pair evaluated once, scattered both ways
// ---------------------------------------------------------------------------

TEST(EvalMutual, KernelsAreBitwiseSymmetric) {
  // The mutual near field hands one K(x, y) to both x and y, which is exact
  // only because every bundled kernel computes the same bits for K(y, x).
  util::Rng rng(41);
  const auto pts = random_points(48, rng);
  const LaplaceKernel laplace;
  const YukawaKernel yukawa{1.5};
  const GaussianKernel gaussian{0.7};
  const ScalarLaplace scalar;
  for (const Kernel* k :
       {static_cast<const Kernel*>(&laplace),
        static_cast<const Kernel*>(&yukawa),
        static_cast<const Kernel*>(&gaussian),
        static_cast<const Kernel*>(&scalar)}) {
    for (const auto& x : pts)
      for (const auto& y : pts)
        ASSERT_EQ(k->eval(x, y), k->eval(y, x)) << k->name();
  }
}

/// A block against one unit-density point isolates one K per output: with
/// the block's densities zero, out_block[i] = K(block_i, s) on the row side
/// and, with the roles swapped, on the column side. Both must equal eval()
/// bit for bit, as must both outputs of a single pair.
void expect_mutual_per_pair_bitwise(const Kernel& kernel) {
  util::Rng rng(43);
  const auto block = random_points(37, rng);
  const auto singles = random_points(9, rng);
  const SoaPoints a(block);
  const std::vector<double> zeros(block.size(), 0.0);
  for (const auto& s : singles) {
    const double sx = s.x;
    const double sy = s.y;
    const double sz = s.z;
    const PointBlock one{&sx, &sy, &sz, 1};
    const double unit = 1.0;

    // Rows: block targets, the single point as the unit source.
    std::vector<double> rows(block.size(), 0.0);
    double sink = 0.0;
    kernel.eval_mutual(a.block(), zeros.data(), rows.data(), one, &unit,
                       &sink);
    // Columns: the single point as the unit-density a side.
    std::vector<double> cols(block.size(), 0.0);
    double sink2 = 0.0;
    kernel.eval_mutual(one, &unit, &sink2, a.block(), zeros.data(),
                       cols.data());
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(rows[i], kernel.eval(block[i], s))
          << kernel.name() << " row " << i;
      EXPECT_EQ(cols[i], kernel.eval(s, block[i]))
          << kernel.name() << " column " << i;
    }

    // A single pair: each side receives the one value.
    const double tx = block[0].x;
    const double ty = block[0].y;
    const double tz = block[0].z;
    const PointBlock t{&tx, &ty, &tz, 1};
    double out_t = 0.0;
    double out_s = 0.0;
    kernel.eval_mutual(t, &unit, &out_t, one, &unit, &out_s);
    EXPECT_EQ(out_t, kernel.eval(block[0], s)) << kernel.name();
    EXPECT_EQ(out_s, kernel.eval(s, block[0])) << kernel.name();
  }
}

TEST(EvalMutual, LaplacePerPairBitwiseMatchesEval) {
  expect_mutual_per_pair_bitwise(LaplaceKernel{});
}

TEST(EvalMutual, YukawaPerPairBitwiseMatchesEval) {
  expect_mutual_per_pair_bitwise(YukawaKernel{1.5});
}

TEST(EvalMutual, GaussianPerPairBitwiseMatchesEval) {
  expect_mutual_per_pair_bitwise(GaussianKernel{0.7});
}

TEST(EvalMutual, FallbackPerPairBitwiseMatchesEval) {
  expect_mutual_per_pair_bitwise(ScalarLaplace{});
}

TEST(EvalMutual, SelfBlockSkipsSingularDiagonalAndCoincidentPoints) {
  // Three coincident points plus one apart, densities exact in binary so
  // every sum below is exact. A self block evaluates i < j only: for the
  // singular kernels the coincident copies contribute K = 0 to each other
  // and nothing to themselves; the Gaussian keeps K(x, x) = 1, added once
  // per point -- the same sum the one-way form and direct_sum produce.
  const std::vector<Vec3> pts{{0.25, -0.5, 0.125},
                              {0.25, -0.5, 0.125},
                              {0.25, -0.5, 0.125},
                              {-0.75, 0.5, 0.5}};
  const SoaPoints b(pts);
  const std::vector<double> dens{1.0, 2.0, 4.0, 8.0};
  const LaplaceKernel laplace;
  const YukawaKernel yukawa{2.0};
  const ScalarLaplace scalar;
  for (const Kernel* k : {static_cast<const Kernel*>(&laplace),
                          static_cast<const Kernel*>(&yukawa),
                          static_cast<const Kernel*>(&scalar)}) {
    std::vector<double> out(pts.size(), 0.0);
    k->eval_mutual(b.block(), dens.data(), out.data(), b.block(), dens.data(),
                   out.data());
    const double far = k->eval(pts[0], pts[3]);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(out[i], far * dens[3]) << k->name() << " point " << i;
    EXPECT_EQ(out[3], far * 1.0 + far * 2.0 + far * 4.0) << k->name();
  }

  const GaussianKernel gaussian{0.5};
  std::vector<double> out(pts.size(), 0.0);
  gaussian.eval_mutual(b.block(), dens.data(), out.data(), b.block(),
                       dens.data(), out.data());
  EXPECT_EQ(gaussian.eval(pts[0], pts[0]), 1.0);
  const double far = gaussian.eval(pts[0], pts[3]);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(out[i], 7.0 + far * dens[3], 1e-14) << "point " << i;
}

/// Reference: the mutual result must equal two one-way sweeps (or, on a
/// self block, one) up to summation order.
void expect_mutual_matches_one_way(const Kernel& kernel) {
  util::Rng rng(47);
  const auto pa = random_points(61, rng);
  const auto pb = random_points(29, rng);
  std::vector<double> da(pa.size());
  std::vector<double> db(pb.size());
  for (auto& d : da) d = rng.uniform(-1, 1);
  for (auto& d : db) d = rng.uniform(-1, 1);
  const SoaPoints a(pa);
  const SoaPoints b(pb);

  std::vector<double> out_a(pa.size(), 0.5);
  std::vector<double> out_b(pb.size(), -0.5);
  kernel.eval_mutual(a.block(), da.data(), out_a.data(), b.block(), db.data(),
                     out_b.data());
  std::vector<double> ref_a(pa.size(), 0.5);
  std::vector<double> ref_b(pb.size(), -0.5);
  kernel.eval_batch(a.block(), b.block(), db.data(), ref_a.data());
  kernel.eval_batch(b.block(), a.block(), da.data(), ref_b.data());

  std::vector<double> self(pa.size(), 0.0);
  kernel.eval_mutual(a.block(), da.data(), self.data(), a.block(), da.data(),
                     self.data());
  std::vector<double> ref_self(pa.size(), 0.0);
  kernel.eval_batch(a.block(), a.block(), da.data(), ref_self.data());

  double scale = 0.0;
  for (const auto* v : {&ref_a, &ref_b, &ref_self})
    for (const double x : *v) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(out_a[i], ref_a[i], 1e-12 * scale) << kernel.name() << i;
    EXPECT_NEAR(self[i], ref_self[i], 1e-12 * scale) << kernel.name() << i;
  }
  for (std::size_t j = 0; j < pb.size(); ++j)
    EXPECT_NEAR(out_b[j], ref_b[j], 1e-12 * scale) << kernel.name() << j;
}

TEST(EvalMutual, MatchesOneWaySweeps) {
  expect_mutual_matches_one_way(LaplaceKernel{});
  expect_mutual_matches_one_way(YukawaKernel{1.5});
  expect_mutual_matches_one_way(GaussianKernel{0.7});
  expect_mutual_matches_one_way(ScalarLaplace{});
}

TEST(EvalMutual, FallbackAndSimdAgree) {
  // Same Laplace mathematics through the base-class loop and the simd
  // override, on a block pair and on a self block.
  util::Rng rng(53);
  const auto pa = random_points(70, rng);
  const auto pb = random_points(45, rng);
  std::vector<double> da(pa.size());
  std::vector<double> db(pb.size());
  for (auto& d : da) d = rng.uniform(-1, 1);
  for (auto& d : db) d = rng.uniform(-1, 1);
  const SoaPoints a(pa);
  const SoaPoints b(pb);
  const LaplaceKernel simd;
  const ScalarLaplace fallback;

  std::vector<std::vector<double>> outs;
  for (const Kernel* k : {static_cast<const Kernel*>(&simd),
                          static_cast<const Kernel*>(&fallback)}) {
    std::vector<double> out_a(pa.size(), 0.0);
    std::vector<double> out_b(pb.size(), 0.0);
    std::vector<double> self(pa.size(), 0.0);
    k->eval_mutual(a.block(), da.data(), out_a.data(), b.block(), db.data(),
                   out_b.data());
    k->eval_mutual(a.block(), da.data(), self.data(), a.block(), da.data(),
                   self.data());
    out_a.insert(out_a.end(), out_b.begin(), out_b.end());
    out_a.insert(out_a.end(), self.begin(), self.end());
    outs.push_back(std::move(out_a));
  }
  double scale = 0.0;
  for (const double v : outs[1]) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < outs[0].size(); ++i)
    EXPECT_NEAR(outs[0][i], outs[1][i], 1e-12 * scale) << "output " << i;
}

/// End-to-end FMM vs direct sum through the batched hot paths; `kernel`
/// selects which eval_batch implementation the phases hit.
void expect_fmm_matches_direct(const Kernel& kernel, double rel_tol) {
  util::Rng rng(17);
  const std::size_t n = 2000;
  const auto pts = uniform_cube(n, rng);
  const auto dens = random_densities(n, rng);
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32},
                  FmmConfig{.p = 5});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (phi[i] - ref[i]) * (phi[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  EXPECT_LT(std::sqrt(num / den), rel_tol) << kernel.name();
}

TEST(EvalBatch, FmmAccuracyThroughBatchedPaths) {
  expect_fmm_matches_direct(LaplaceKernel{}, 1e-5);
}

TEST(EvalBatch, FmmAccuracyThroughFallbackPath) {
  expect_fmm_matches_direct(ScalarLaplace{}, 1e-5);
}

TEST(EvalBatch, FmmAccuracyGaussianBatched) {
  // The non-singular Gaussian stresses the equivalent-density solves more
  // than the singular kernels; its p=5 accuracy plateaus near 1e-4.
  expect_fmm_matches_direct(GaussianKernel{0.35}, 1e-3);
}

TEST(EvalBatch, BatchedAndFallbackFmmAgreeClosely) {
  // Same kernel mathematics through both dispatch paths: potentials agree to
  // rounding (the simd path may reassociate sums; nothing more).
  util::Rng rng(23);
  const std::size_t n = 1500;
  const auto pts = uniform_cube(n, rng);
  const auto dens = random_densities(n, rng);
  const LaplaceKernel batched;
  const ScalarLaplace fallback;
  FmmEvaluator ev_b(batched, pts, {.max_points_per_box = 32},
                    FmmConfig{.p = 4});
  FmmEvaluator ev_f(fallback, pts, {.max_points_per_box = 32},
                    FmmConfig{.p = 4});
  const auto phi_b = ev_b.evaluate(dens);
  const auto phi_f = ev_f.evaluate(dens);
  double scale = 0.0;
  for (const double v : phi_f) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(phi_b[i], phi_f[i], 1e-12 * scale) << "point " << i;
}

}  // namespace
}  // namespace eroof::fmm
