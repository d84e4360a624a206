// Thread-count invariance of the phase sweeps: the potentials of every
// kernel, problem size and leaf capacity are bitwise identical at 1, 2 and
// 4 OpenMP threads, for both the FFT and the dense M2L path, on uniform,
// serve-shaped and adaptive trees (the mutual U phase's colored pair
// schedule sees even and uneven leaf degrees). A separate binary so the
// Clang TSan CI job can race-check the sweeps' OpenMP loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "../test_support.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

::testing::AssertionResult bitwise_equal(const std::vector<double>& got,
                                         const std::vector<double>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "bit mismatch at [" << i << "]: " << got[i] << " vs "
             << want[i] << " (delta " << got[i] - want[i] << ")";
  }
  return ::testing::AssertionSuccess();
}

struct KernelCase {
  std::string name;
  const Kernel& kernel() const {
    static const LaplaceKernel laplace;
    static const YukawaKernel yukawa{2.5};
    static const GaussianKernel gaussian{0.35};
    if (name == "laplace") return laplace;
    if (name == "yukawa") return yukawa;
    return gaussian;
  }
};

// Without this gtest prints the raw object bytes, whose leading std::string
// pointer is a heap address: the listed test names would change per process.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

/// Evaluates at 1, 2 and 4 threads and expects every run to match the
/// 1-thread potentials bit for bit.
void expect_thread_invariant(FmmEvaluator& ev, const std::vector<double>& dens,
                             const std::string& what) {
  std::vector<double> ref;
  with_threads(1, [&] { ref = ev.evaluate(dens); });
  for (const int threads : {1, 2, 4}) {
    with_threads(threads, [&] {
      EXPECT_TRUE(bitwise_equal(ev.evaluate(dens), ref))
          << what << " threads=" << threads;
    });
  }
}

/// Contracts points into the serving domain the way serve::make_request
/// does: 0.45 toward the unit cube's center, then clamped into it.
std::vector<Vec3> into_serve_domain(std::vector<Vec3> pts) {
  const auto contract = [](double v) {
    return std::clamp(0.5 + (v - 0.5) * 0.45, 0.0, 1.0);
  };
  for (auto& p : pts) p = {contract(p.x), contract(p.y), contract(p.z)};
  return pts;
}

Octree::Params serve_tree(std::size_t n) {
  return {.max_points_per_box = 64,
          .uniform_depth = Octree::uniform_depth_for(n, 64),
          .domain = {{0.5, 0.5, 0.5}, 0.5}};
}

class Differential : public ::testing::TestWithParam<KernelCase> {};

TEST_P(Differential, ThreadCountsMatchOneThreadBitwiseAcrossSizes) {
  const Kernel& kernel = GetParam().kernel();
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{513},
                              std::size_t{16384}}) {
    for (const std::uint32_t q : {16u, 64u}) {
      util::Rng rng(900 + n + q);
      const auto pts = uniform_cube(n, rng);
      const auto dens = random_densities(n, rng);
      // Keep the largest case cheap: accuracy is not under test, only
      // bitwise agreement across thread counts.
      const int p = n >= 16384 ? 3 : 4;
      FmmEvaluator ev(kernel, pts, {.max_points_per_box = q},
                      FmmConfig{.p = p});
      expect_thread_invariant(
          ev, dens, "n=" + std::to_string(n) + " q=" + std::to_string(q));
    }
  }
}

TEST_P(Differential, ServeShapedTreesMatchOneThreadBitwise) {
  // Serving's trees: uniform depth from (n, Q) in the fixed protocol domain,
  // with sphere-surface and clustered points contracted into its center.
  // Few, crowded, mutually adjacent leaves -- every U block is large and
  // the self blocks are a big share of the work.
  const Kernel& kernel = GetParam().kernel();
  for (const std::size_t n :
       {std::size_t{1024}, std::size_t{4096}, std::size_t{8192}}) {
    for (const bool sphere : {true, false}) {
      util::Rng rng(960 + n + (sphere ? 1 : 0));
      const auto pts = into_serve_domain(
          sphere ? sphere_surface(n, rng) : gaussian_clusters(n, 8, 0.05, rng));
      const auto dens = random_densities(n, rng);
      FmmEvaluator ev(kernel, pts, serve_tree(n), FmmConfig{.p = 3});
      expect_thread_invariant(ev, dens,
                              "n=" + std::to_string(n) +
                                  (sphere ? " sphere" : " clusters"));
    }
  }
}

TEST_P(Differential, AdaptiveClusteredTreeMatchesOneThreadBitwise) {
  // A Q-mode tree over clustered points: leaves on several levels, so U
  // lists join coarse and fine neighbours and leaf degrees are uneven.
  const Kernel& kernel = GetParam().kernel();
  util::Rng rng(977);
  const auto pts = gaussian_clusters(6000, 5, 0.04, rng);
  const auto dens = random_densities(pts.size(), rng);
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 24}, FmmConfig{.p = 3});

  bool mixed_levels = false;
  for (const int b : ev.tree().leaves())
    for (const int a : ev.lists().u[static_cast<std::size_t>(b)])
      mixed_levels = mixed_levels ||
                     ev.tree().node(a).level() != ev.tree().node(b).level();
  ASSERT_TRUE(mixed_levels) << "tree has no coarse/fine U neighbours";
  expect_thread_invariant(ev, dens, "adaptive clusters");
}

TEST_P(Differential, DenseM2lFallbackAgreesToo) {
  // The non-FFT V path runs dense per-pair M2L applications instead of the
  // per-level spectrum banks.
  const Kernel& kernel = GetParam().kernel();
  util::Rng rng(941);
  const auto pts = uniform_cube(1024, rng);
  const auto dens = random_densities(1024, rng);
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 16},
                  FmmConfig{.p = 3, .use_fft_m2l = false});
  std::vector<double> ref;
  with_threads(1, [&] { ref = ev.evaluate(dens); });
  for (const int threads : {1, 4}) {
    with_threads(threads, [&] {
      EXPECT_TRUE(bitwise_equal(ev.evaluate(dens), ref))
          << "threads=" << threads;
    });
  }
}

// ---------------------------------------------------------------------------
// Structural tallies
// ---------------------------------------------------------------------------

/// One phase's tallies in FmmStats::Phase field order.
using Tally = std::array<double, 5>;

Tally tally(const FmmStats::Phase& p) {
  return {p.kernel_evals, p.pair_count, p.ffts, p.hadamard_cmuls,
          p.solve_matvecs};
}

void expect_stats(const FmmStats& s, const std::array<Tally, 6>& want) {
  const FmmStats::Phase* got[] = {&s.up, &s.u, &s.v, &s.w, &s.x, &s.down};
  const char* names[] = {"UP", "U", "V", "W", "X", "DOWN"};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(tally(*got[i]), want[i]) << names[i];
}

TEST(FmmStats, StructuralTalliesMatchTheOneWayCounts) {
  // The mutual near field evaluates each block once, but FmmStats::u keeps
  // counting directed evaluations -- the paper's one-way CUDA kernel, which
  // the GPU profile models. These figures were recorded from the one-way
  // U phase (rows: UP, U, V, W, X, DOWN) and must stay put at any thread
  // count.
  const LaplaceKernel kernel;
  {
    util::Rng rng(77);
    const auto pts = gaussian_clusters(3000, 5, 0.06, rng);
    const auto dens = random_densities(pts.size(), rng);
    FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32},
                    FmmConfig{.p = 3});
    const std::array<Tally, 6> want{{{78000, 0, 0, 0, 777},
                                     {766956, 6104, 0, 0, 0},
                                     {0, 16740, 818, 3615840, 0},
                                     {596284, 2406, 0, 0, 0},
                                     {596284, 2406, 0, 0, 0},
                                     {78000, 0, 0, 0, 777}}};
    expect_stats(ev.stats(), want);
    for (const int threads : {1, 4}) {
      with_threads(threads, [&] { (void)ev.evaluate(dens); });
      expect_stats(ev.stats(), want);
    }
  }
  {
    util::Rng rng(78);
    const auto pts = into_serve_domain(sphere_surface(4096, rng));
    FmmEvaluator ev(kernel, pts, serve_tree(pts.size()), FmmConfig{.p = 3});
    // Eight mutually adjacent leaves: U is the full 4096^2 direct sum.
    expect_stats(ev.stats(), {{{106496, 0, 0, 0, 8},
                               {16777216, 64, 0, 0, 0},
                               {0, 0, 8, 0, 0},
                               {0, 0, 0, 0, 0},
                               {0, 0, 0, 0, 0},
                               {106496, 0, 0, 0, 8}}});
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Differential,
                         ::testing::Values(KernelCase{"laplace"},
                                           KernelCase{"yukawa"},
                                           KernelCase{"gaussian"}),
                         [](const auto& test_info) {
                           return test_info.param.name;
                         });

}  // namespace
}  // namespace eroof::fmm
