// End-to-end FMM correctness: the evaluator must reproduce the direct
// O(N^2) sum within the accuracy of the chosen surface order, across
// distributions (uniform, sphere surface, clustered -- the latter two
// exercising the adaptive W/X paths), kernels, and tree parameters.
#include <gtest/gtest.h>

#include "util/require.hpp"

#include "fmm/direct.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

struct Case {
  std::string name;
  std::size_t n;
  std::uint32_t q;
  int p;
  double tol;
  int dist;  // 0 uniform, 1 sphere, 2 clusters
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class FmmAccuracy : public ::testing::TestWithParam<Case> {};

TEST_P(FmmAccuracy, MatchesDirectSum) {
  const Case& c = GetParam();
  util::Rng rng(1234);
  std::vector<Vec3> pts;
  switch (c.dist) {
    case 0: pts = uniform_cube(c.n, rng); break;
    case 1: pts = sphere_surface(c.n, rng); break;
    default: pts = gaussian_clusters(c.n, 4, 0.03, rng); break;
  }
  const auto dens = random_densities(c.n, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = c.q},
                  FmmConfig{.p = c.p});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), c.tol) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FmmAccuracy,
    ::testing::Values(
        Case{"uniform_small_p4", 2048, 32, 4, 2e-3, 0},
        Case{"uniform_small_p5", 2048, 32, 5, 5e-4, 0},
        Case{"uniform_small_p6", 2048, 32, 6, 5e-5, 0},
        Case{"uniform_larger_p4", 8192, 64, 4, 2e-3, 0},
        Case{"uniform_bigQ_p4", 4096, 256, 4, 2e-3, 0},
        Case{"sphere_p4", 4096, 32, 4, 3e-3, 1},
        Case{"sphere_p5", 4096, 32, 5, 8e-4, 1},
        Case{"clusters_p4", 4096, 32, 4, 3e-3, 2},
        Case{"clusters_p5", 4096, 32, 5, 1e-3, 2}),
    [](const auto& pinfo) { return pinfo.param.name; });

TEST(FmmAccuracyExtra, ErrorDecreasesWithSurfaceOrder) {
  util::Rng rng(77);
  const auto pts = uniform_cube(2048, rng);
  const auto dens = random_densities(2048, rng);
  const LaplaceKernel kernel;
  const auto ref = direct_sum(kernel, pts, pts, dens);

  double prev = 1.0;
  for (int p : {4, 5, 6}) {
    FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32},
                    FmmConfig{.p = p});
    const double err = rel_l2_error(ev.evaluate(dens), ref);
    EXPECT_LT(err, prev) << "p = " << p << " did not improve accuracy";
    prev = err;
  }
}

TEST(FmmAccuracyExtra, LinearityInDensities) {
  util::Rng rng(78);
  const auto pts = uniform_cube(1024, rng);
  const auto d1 = random_densities(1024, rng);
  const auto d2 = random_densities(1024, rng);
  std::vector<double> combo(1024);
  for (std::size_t i = 0; i < 1024; ++i) combo[i] = 2.0 * d1[i] - 3.0 * d2[i];

  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32}, FmmConfig{.p = 4});
  const auto p1 = ev.evaluate(d1);
  const auto p2 = ev.evaluate(d2);
  const auto pc = ev.evaluate(combo);
  for (std::size_t i = 0; i < 128; ++i)  // spot-check a prefix
    EXPECT_NEAR(pc[i], 2.0 * p1[i] - 3.0 * p2[i],
                1e-9 * (std::abs(pc[i]) + 1.0));
}

TEST(FmmAccuracyExtra, RepeatedEvaluationIsDeterministic) {
  util::Rng rng(79);
  const auto pts = uniform_cube(1024, rng);
  const auto dens = random_densities(1024, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32}, FmmConfig{.p = 4});
  const auto a = ev.evaluate(dens);
  const auto b = ev.evaluate(dens);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(FmmAccuracyExtra, DenseM2LFallbackAgreesWithFft) {
  util::Rng rng(80);
  const auto pts = uniform_cube(2048, rng);
  const auto dens = random_densities(2048, rng);
  const LaplaceKernel kernel;
  FmmEvaluator fft_ev(kernel, pts, {.max_points_per_box = 32},
                      FmmConfig{.p = 4, .use_fft_m2l = true});
  FmmEvaluator dense_ev(kernel, pts, {.max_points_per_box = 32},
                        FmmConfig{.p = 4, .use_fft_m2l = false});
  const auto a = fft_ev.evaluate(dens);
  const auto b = dense_ev.evaluate(dens);
  EXPECT_LT(rel_l2_error(a, b), 1e-10);
}

TEST(FmmAccuracyExtra, DenseM2LFallbackAgreesWithFftAtEveryOrder) {
  // The FFT path's half spectra and paired transforms against the dense
  // reference at p = 3..6, on a clustered adaptive tree (V lists on several
  // levels, odd and even V-active counts).
  util::Rng rng(82);
  const auto pts = gaussian_clusters(1536, 3, 0.05, rng);
  const auto dens = random_densities(pts.size(), rng);
  const LaplaceKernel kernel;
  for (int p = 3; p <= 6; ++p) {
    FmmEvaluator fft_ev(kernel, pts, {.max_points_per_box = 24},
                        FmmConfig{.p = p, .use_fft_m2l = true});
    FmmEvaluator dense_ev(kernel, pts, {.max_points_per_box = 24},
                          FmmConfig{.p = p, .use_fft_m2l = false});
    ASSERT_GT(fft_ev.stats().v.pair_count, 0.0);
    const auto a = fft_ev.evaluate(dens);
    const auto b = dense_ev.evaluate(dens);
    // The DC2E solves amplify M2L roundoff more as p grows: the full-grid
    // FFT path read 2e-14, 3e-13, 7e-11 and 7e-10 here at p = 3..6.
    EXPECT_LT(rel_l2_error(a, b), p <= 5 ? 1e-10 : 2e-9) << "p = " << p;
  }
}

TEST(FmmAccuracyExtra, YukawaKernelWorks) {
  // Kernel independence: a non-homogeneous kernel through the same
  // machinery.
  util::Rng rng(81);
  const auto pts = uniform_cube(2048, rng);
  const auto dens = random_densities(2048, rng);
  const YukawaKernel kernel(1.5);
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32}, FmmConfig{.p = 5});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 2e-3);
}

TEST(FmmAccuracyExtra, UniformTreeModeMatchesDirectToo) {
  util::Rng rng(82);
  const std::size_t n = 4096;
  const auto pts = uniform_cube(n, rng);
  const auto dens = random_densities(n, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts,
                  {.max_points_per_box = 64,
                   .uniform_depth = Octree::uniform_depth_for(n, 64)},
                  FmmConfig{.p = 4});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 2e-3);
}

TEST(FmmAccuracyExtra, TinyInputDegeneratesToDirect) {
  // N <= Q: the root is a leaf and everything goes through U.
  util::Rng rng(83);
  const auto pts = uniform_cube(50, rng);
  const auto dens = random_densities(50, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 64}, FmmConfig{.p = 4});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 1e-12);
}

TEST(FmmAccuracyExtra, StatsTalliesArePopulated) {
  util::Rng rng(84);
  const auto pts = uniform_cube(4096, rng);
  const auto dens = random_densities(4096, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32}, FmmConfig{.p = 4});
  ev.evaluate(dens);
  const FmmStats& s = ev.stats();
  EXPECT_GT(s.u.kernel_evals, 0);
  EXPECT_GT(s.u.pair_count, 0);
  EXPECT_GT(s.v.pair_count, 0);
  EXPECT_GT(s.v.ffts, 0);
  EXPECT_GT(s.up.kernel_evals, 0);
  EXPECT_GT(s.down.solve_matvecs, 0);
}

TEST(FmmAccuracyExtra, WrongDensityCountThrows) {
  util::Rng rng(85);
  const auto pts = uniform_cube(256, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32}, FmmConfig{.p = 4});
  const std::vector<double> wrong(100, 1.0);
  EXPECT_THROW(ev.evaluate(wrong), util::ContractError);
}

}  // namespace
}  // namespace eroof::fmm
