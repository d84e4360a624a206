// Golden bitwise regression for the two cold steps of a plan: the SVD-based
// check-to-equivalent pseudo-inverses and the GPU counter profile. The
// hashes were recorded from the straightforward row-major Jacobi SVD and
// the serial one-access-at-a-time cache replay; every faster layout or
// parallel schedule of either must reproduce them bit for bit, at any
// OpenMP thread count. gaussian_p6 and uniform_4096_p5 were recorded from
// the SVD that always ran 60 sweeps and the per-line V replay.
//
// PotentialsGolden pins the warm step: evaluate() potentials for Laplace at
// p = 3..6, whose M2L grids (m = 2p = 6, 8, 10, 12) run both the
// mixed-radix and the radix-2 FFT. They were recorded from one simd loop
// per kernel and from separate 1-D and 3-D radix-2 passes with a Bluestein
// fallback. Their bits depend on how the compiler splits the simd
// reductions across lanes, so only the builds tests/CMakeLists.txt marks
// with EROOF_PINNED_SIMD_SUMS compare against the recorded hashes; every
// build compares the potentials across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "../test_support.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/pointgen.hpp"
#include "fmm/surface.hpp"
#include "linalg/svd.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

struct SvdGoldenCase {
  const char* name;
  int p;
  std::uint64_t uc2e;  ///< hash of svd (u, s, v) then pinv_tikhonov
  std::uint64_t dc2e;
};

const Kernel& kernel_for(std::string_view name) {
  static const LaplaceKernel laplace;
  static const YukawaKernel yukawa{1.5};
  static const GaussianKernel gaussian{0.5};
  if (name.starts_with("laplace")) return laplace;
  if (name.starts_with("yukawa")) return yukawa;
  return gaussian;
}

/// The check-to-equivalent matrix exactly as Operators::build_level forms
/// it for a level-2 box of a unit root.
std::uint64_t solve_hash(const Kernel& kernel, int p, bool up) {
  const Box box{{0, 0, 0}, 0.25};
  const auto inner = surface_points(p, box, kRadiusInner);
  const auto outer = surface_points(p, box, kRadiusOuter);
  const la::Matrix k = up ? kernel.matrix(outer, inner)
                          : kernel.matrix(inner, outer);
  const la::Svd f = la::svd(k);
  GoldenHash h;
  h.add(f.u);
  h.add(f.s);
  h.add(f.v);
  h.add(la::pinv_tikhonov(k, Operators::kTikhonovEps));
  return h.value();
}

TEST(SvdGolden, CheckToEquivalentFactorsAndPseudoInverses) {
  const SvdGoldenCase cases[] = {
      {"laplace_p4", 4, 0x128308b7d7d7aad9ULL,
       0x328b84a047946fb4ULL},
      {"laplace_p5", 5, 0x47cc960c51361ec7ULL,
       0x413d98e34769b4a5ULL},
      {"yukawa_p4", 4, 0x8ed6f4cd46edbe70ULL,
       0x6cc71f2d010638cdULL},
      {"gaussian_p5", 5, 0x2ad46c0b02571997ULL,
       0x2730f5622735c00dULL},
      // The slowest to converge: its last rotation lands in sweep 29.
      {"gaussian_p6", 6, 0xf96ba5c5aaf71574ULL,
       0x4dcc2fb502eee8ffULL},
  };
  for (const int threads : {1, 2, 4}) {
    with_threads(threads, [&] {
      for (const auto& c : cases) {
        const Kernel& kernel = kernel_for(c.name);
        EXPECT_EQ(solve_hash(kernel, c.p, true), c.uc2e)
            << c.name << " uc2e threads=" << threads;
        EXPECT_EQ(solve_hash(kernel, c.p, false), c.dc2e)
            << c.name << " dc2e threads=" << threads;
      }
    });
  }
}

/// Every counter of every phase, names and values, in phase order.
std::uint64_t profile_hash(const FmmEvaluator& ev) {
  GoldenHash h;
  for (const auto& phase : profile_gpu_execution(ev).phases) {
    h.add(phase.name);
    for (const auto& [name, value] : phase.counters.values()) {
      h.add(name);
      h.add(value);
    }
  }
  return h.value();
}

struct ProfileGoldenCase {
  const char* name;
  std::uint64_t hash;
};

FmmEvaluator golden_evaluator(std::string_view name) {
  static const LaplaceKernel kernel;
  util::Rng rng(11);
  constexpr std::uint32_t kQ = 64;
  Octree::Params params{.max_points_per_box = kQ};
  std::vector<Vec3> pts;
  if (name == "uniform_32768") {
    pts = uniform_cube(32768, rng);
    params.uniform_depth = Octree::uniform_depth_for(pts.size(), kQ);
  } else if (name == "uniform_4096_p5") {
    pts = uniform_cube(4096, rng);
    params.uniform_depth = Octree::uniform_depth_for(pts.size(), kQ);
  } else if (name == "clusters_8192") {
    pts = gaussian_clusters(8192, 8, 0.05, rng);
  } else {
    pts = sphere_surface(4096, rng);
  }
  const int p = name.ends_with("_p5") ? 5 : 4;
  return FmmEvaluator(kernel, pts, params, FmmConfig{.p = p});
}

TEST(GpuProfileGolden, EveryCounterMatchesTheRecordedHash) {
  // The p = 4 trees take the V phase's block replay, with spectra bases
  // 0, 2048 and 2560 mod 4 KiB; at p = 5 a spectrum is 8000 B, so V falls
  // back to the per-line replay.
  const ProfileGoldenCase cases[] = {
      {"uniform_32768", 0x5a4c1dff8d3818e7ULL},
      {"clusters_8192", 0xfa33ba5f0f8d5cf8ULL},
      {"sphere_adaptive_4096", 0x2527e5ff3e97a84eULL},
      {"uniform_4096_p5", 0xc5286a3711ab4743ULL},
  };
  for (const auto& c : cases) {
    const FmmEvaluator ev = golden_evaluator(c.name);
    if (!std::string_view(c.name).starts_with("uniform")) {
      // The adaptive trees must exercise the W and X replays too.
      const auto prof = profile_gpu_execution(ev);
      EXPECT_GT(prof.phases[3].counters.get("gld_request"), 0.0) << c.name;
      EXPECT_GT(prof.phases[4].counters.get("gld_request"), 0.0) << c.name;
    }
    for (const int threads : {1, 2, 4}) {
      with_threads(threads, [&] {
        EXPECT_EQ(profile_hash(ev), c.hash)
            << c.name << " threads=" << threads;
      });
    }
  }
}

/// The potentials' bits, in the caller's point order.
std::uint64_t potentials_hash(FmmEvaluator& ev, std::span<const double> dens) {
  GoldenHash h;
  h.add(ev.evaluate(dens));
  return h.value();
}

struct PotentialsGoldenCase {
  int p;
  std::uint64_t hash;
};

/// Laplace only: the Yukawa and Gaussian loops call the C library's exp(),
/// whose bits may differ between library versions. Their
/// per-pair values are pinned against eval() by EvalBatch/EvalMutual, and
/// eval() itself by SvdGolden.
void expect_potentials_golden(std::span<const Vec3> pts,
                              Octree::Params params,
                              std::span<const PotentialsGoldenCase> cases,
                              std::string_view tree) {
  static const LaplaceKernel kernel;
  util::Rng rng(29);
  const auto dens = random_densities(pts.size(), rng);
  for (const auto& c : cases) {
    FmmEvaluator ev(kernel, pts, params, FmmConfig{.p = c.p});
    std::uint64_t one_thread = 0;
    with_threads(1, [&] { one_thread = potentials_hash(ev, dens); });
#ifdef EROOF_PINNED_SIMD_SUMS
    EXPECT_EQ(one_thread, c.hash) << tree << " p=" << c.p;
#endif
    for (const int threads : {2, 4}) {
      with_threads(threads, [&] {
        EXPECT_EQ(potentials_hash(ev, dens), one_thread)
            << tree << " p=" << c.p << " threads=" << threads;
      });
    }
    // The hashes cover the V phase's FFTs and the U phase's simd loops.
    EXPECT_GT(ev.stats().v.ffts, 0.0) << tree;
    EXPECT_GT(ev.stats().u.kernel_evals, 0.0) << tree;
  }
}

TEST(PotentialsGolden, UniformTree4096) {
  util::Rng rng(13);
  const auto pts = uniform_cube(4096, rng);
  constexpr std::uint32_t kQ = 32;  // depth 3: a V list per leaf
  const Octree::Params params{
      .max_points_per_box = kQ,
      .uniform_depth = Octree::uniform_depth_for(pts.size(), kQ)};
  const PotentialsGoldenCase cases[] = {
      {3, 0x936ad0ca5752e8cbULL},
      {4, 0xa1e1abd0832dc896ULL},
      {5, 0xb8957bf666fb2421ULL},
      {6, 0x6c7a583c0afcc4f9ULL},
  };
  expect_potentials_golden(pts, params, cases, "uniform_4096");
}

TEST(PotentialsGolden, ClusteredAdaptiveTree) {
  util::Rng rng(17);
  const auto pts = gaussian_clusters(4096, 8, 0.05, rng);
  const PotentialsGoldenCase cases[] = {
      {3, 0x31b1555a68b131b0ULL},
      {4, 0x3efe63e169774647ULL},
      {5, 0x4519388c3631b133ULL},
      {6, 0xa74604a49eca576dULL},
  };
  expect_potentials_golden(pts, Octree::Params{.max_points_per_box = 64},
                           cases, "clusters_4096");
}

}  // namespace
}  // namespace eroof::fmm
