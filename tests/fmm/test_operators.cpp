#include "fmm/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "fmm/direct.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

constexpr int kP = 4;

Operators make_ops(const Kernel& k, int max_level = 3) {
  return Operators(k, 0.5, max_level, FmmConfig{.p = kP});
}

TEST(Operators, GridGeometry) {
  const LaplaceKernel k;
  const Operators ops = make_ops(k);
  EXPECT_EQ(ops.grid_m(), 8u);
  EXPECT_EQ(ops.grid_size(), 512u);
  EXPECT_EQ(ops.n_surf(), surface_point_count(kP));
  EXPECT_EQ(ops.surf_to_grid().size(), ops.n_surf());
}

TEST(Operators, EmbedExtractRoundTrip) {
  const LaplaceKernel k;
  const Operators ops = make_ops(k);
  util::Rng rng(1);
  std::vector<double> vals(ops.n_surf());
  for (auto& v : vals) v = rng.uniform(-1, 1);
  std::vector<fft::cplx> grid(ops.grid_size());
  ops.embed(vals, grid);
  std::vector<double> back(ops.n_surf());
  ops.extract(grid, back);
  for (std::size_t i = 0; i < vals.size(); ++i)
    EXPECT_DOUBLE_EQ(back[i], vals[i]);
}

/// max |got - want| / max |want| over two equal-size complex grids.
double rel_max_diff(std::span<const fft::cplx> got,
                    std::span<const fft::cplx> want) {
  double diff = 0;
  double scale = 0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    diff = std::max(diff, std::abs(got[k] - want[k]));
    scale = std::max(scale, std::abs(want[k]));
  }
  return diff / scale;
}

std::vector<fft::cplx> random_real_grid(std::size_t size, util::Rng& rng) {
  std::vector<fft::cplx> grid(size);
  for (auto& z : grid) z = fft::cplx{rng.uniform(-1, 1), 0};
  return grid;
}

TEST(Operators, HalfSpectrumStoreExpandRoundTrip) {
  // The spectrum of a real grid is Hermitian, so its k <= m/2 half holds
  // all of it: expanding the stored half through X[-k] = conj X[k] must
  // give back the full forward transform, and its inverse the real grid.
  const LaplaceKernel k;
  for (int p = FmmConfig::kMinP; p <= 6; ++p) {
    const Operators ops(k, 0.5, 2, FmmConfig{.p = p});
    const std::size_t m = ops.grid_m();
    ASSERT_EQ(ops.spectrum_size(), m * m * (m / 2 + 1)) << "p = " << p;
    util::Rng rng(static_cast<std::uint64_t>(40 + p));
    const auto real_grid = random_real_grid(ops.grid_size(), rng);
    auto full = real_grid;
    ops.plan().forward(full);

    std::vector<double> re(ops.spectrum_size());
    std::vector<double> im(ops.spectrum_size());
    ops.store_half(full, re, im);
    std::vector<fft::cplx> expanded(ops.grid_size());
    ops.expand_half(re, im, expanded);
    EXPECT_LT(rel_max_diff(expanded, full), 1e-13) << "p = " << p;

    ops.plan().inverse(expanded);
    EXPECT_LT(rel_max_diff(expanded, real_grid), 1e-13) << "p = " << p;
  }
}

TEST(Operators, TwoForOneTransformsMatchTwoSingleTransforms) {
  // Forward: FFT(a + i b) split into the half spectra of a and b. Inverse:
  // the inverse FFT of A + i B carries a in the real part, b in the
  // imaginary part. Both must match one transform per grid.
  const LaplaceKernel k;
  for (int p = FmmConfig::kMinP; p <= 6; ++p) {
    const Operators ops(k, 0.5, 2, FmmConfig{.p = p});
    const std::size_t sz = ops.spectrum_size();
    util::Rng rng(static_cast<std::uint64_t>(50 + p));
    std::vector<double> a(ops.n_surf());
    std::vector<double> b(ops.n_surf());
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (auto& v : b) v = rng.uniform(-1, 1);

    // One transform per grid.
    std::vector<fft::cplx> grid(ops.grid_size());
    std::vector<double> a_re(sz), a_im(sz), b_re(sz), b_im(sz);
    ops.embed(a, grid);
    ops.plan().forward(grid);
    ops.store_half(grid, a_re, a_im);
    ops.embed(b, grid);
    ops.plan().forward(grid);
    ops.store_half(grid, b_re, b_im);

    // One transform for both.
    std::vector<double> pa_re(sz), pa_im(sz), pb_re(sz), pb_im(sz);
    ops.embed(a, grid, b);
    ops.plan().forward(grid);
    ops.store_half(grid, pa_re, pa_im, pb_re, pb_im);
    std::vector<fft::cplx> single(ops.grid_size());
    std::vector<fft::cplx> paired(ops.grid_size());
    ops.expand_half(a_re, a_im, single);
    ops.expand_half(pa_re, pa_im, paired);
    EXPECT_LT(rel_max_diff(paired, single), 1e-13) << "forward a, p = " << p;
    ops.expand_half(b_re, b_im, single);
    ops.expand_half(pb_re, pb_im, paired);
    EXPECT_LT(rel_max_diff(paired, single), 1e-13) << "forward b, p = " << p;

    // Inverse: one transform of A + i B against one per spectrum.
    const auto inverse_single = [&](const std::vector<double>& re,
                                    const std::vector<double>& im) {
      ops.expand_half(re, im, single);
      ops.plan().inverse(single);
      std::vector<double> out(ops.n_surf());
      ops.extract(single, out);
      return out;
    };
    const auto want_a = inverse_single(a_re, a_im);
    const auto want_b = inverse_single(b_re, b_im);
    ops.expand_half(a_re, a_im, paired, b_re, b_im);
    ops.plan().inverse(paired);
    std::vector<double> got_a(ops.n_surf()), got_b(ops.n_surf());
    ops.extract(paired, got_a, got_b);
    EXPECT_LT(rel_l2_error(got_a, want_a), 1e-13) << "inverse a, p = " << p;
    EXPECT_LT(rel_l2_error(got_b, want_b), 1e-13) << "inverse b, p = " << p;
    // The single inverses recover the embedded densities.
    EXPECT_LT(rel_l2_error(want_a, a), 1e-13) << "p = " << p;
    EXPECT_LT(rel_l2_error(want_b, b), 1e-13) << "p = " << p;
  }
}

TEST(Operators, RelIndexRejectsNearField) {
  EXPECT_FALSE(Operators::rel_index(0, 0, 0).has_value());
  EXPECT_FALSE(Operators::rel_index(1, -1, 1).has_value());
  EXPECT_TRUE(Operators::rel_index(2, 0, 0).has_value());
  EXPECT_TRUE(Operators::rel_index(-3, 3, 1).has_value());
  EXPECT_FALSE(Operators::rel_index(4, 0, 0).has_value());
}

TEST(Operators, RelIndexIsInjective) {
  std::set<std::size_t> seen;
  int count = 0;
  for (int dx = -3; dx <= 3; ++dx)
    for (int dy = -3; dy <= 3; ++dy)
      for (int dz = -3; dz <= 3; ++dz) {
        const auto r = Operators::rel_index(dx, dy, dz);
        if (!r) continue;
        EXPECT_TRUE(seen.insert(*r).second);
        ++count;
      }
  EXPECT_EQ(count, 316);  // 7^3 - 3^3
}

TEST(Operators, UpwardEquivalentReproducesFarField) {
  // Place random sources in a level-2 box, build the upward equivalent
  // density through UC2E, and compare the equivalent density's field
  // against the true source field at a well-separated point.
  const LaplaceKernel kernel;
  const FmmConfig cfg{.p = 6};
  const double root_half = 0.5;
  const Operators ops(kernel, root_half, 2, cfg);

  const double h = root_half / 4.0;  // level-2 box half-width
  const Box box{{h, h, h}, h};       // a corner box, center arbitrary
  util::Rng rng(3);
  std::vector<Vec3> sources(20);
  for (auto& s : sources)
    s = {box.center.x + rng.uniform(-h, h), box.center.y + rng.uniform(-h, h),
         box.center.z + rng.uniform(-h, h)};
  std::vector<double> dens(20);
  for (auto& d : dens) d = rng.uniform(-1, 1);

  // P2M: sources -> check potentials -> equivalent density.
  const auto check_pts = surface_points(cfg.p, box, kRadiusOuter);
  const auto equiv_pts = surface_points(cfg.p, box, kRadiusInner);
  std::vector<double> check(check_pts.size(), 0.0);
  for (std::size_t c = 0; c < check_pts.size(); ++c)
    for (std::size_t j = 0; j < sources.size(); ++j)
      check[c] += kernel.eval(check_pts[c], sources[j]) * dens[j];
  const auto equiv = la::matvec(ops.level(2).uc2e, check);

  // Evaluate both representations at far points (outside 3 box halves).
  for (const Vec3 far : {Vec3{box.center.x + 8 * h, box.center.y, box.center.z},
                         Vec3{box.center.x, box.center.y + 10 * h,
                              box.center.z + 6 * h}}) {
    double truth = 0;
    for (std::size_t j = 0; j < sources.size(); ++j)
      truth += kernel.eval(far, sources[j]) * dens[j];
    double approx = 0;
    for (std::size_t j = 0; j < equiv_pts.size(); ++j)
      approx += kernel.eval(far, equiv_pts[j]) * equiv[j];
    EXPECT_NEAR(approx, truth, 1e-5 * std::abs(truth) + 1e-12);
  }
}

TEST(Operators, FftM2LMatchesDenseTranslation) {
  // For one V-list offset, the FFT path (embed -> forward -> Hadamard with
  // the precomputed tensor -> inverse -> extract) must reproduce the dense
  // kernel-matrix application between equivalent and check surfaces.
  const LaplaceKernel kernel;
  const FmmConfig cfg{.p = kP};
  const double root_half = 0.5;
  const int level = 2;
  const Operators ops(kernel, root_half, level, cfg);
  const double h = root_half / 4.0;

  const Box src_box{{0, 0, 0}, h};
  const int dx = 3;
  const int dy = -2;
  const int dz = 0;
  const Box tgt_box{{2 * h * dx, 2 * h * dy, 2 * h * dz}, h};

  util::Rng rng(4);
  std::vector<double> equiv(ops.n_surf());
  for (auto& v : equiv) v = rng.uniform(-1, 1);

  // Dense reference.
  const auto src_pts = surface_points(cfg.p, src_box, kRadiusInner);
  const auto tgt_pts = surface_points(cfg.p, tgt_box, kRadiusInner);
  std::vector<double> dense(ops.n_surf(), 0.0);
  for (std::size_t i = 0; i < tgt_pts.size(); ++i)
    for (std::size_t j = 0; j < src_pts.size(); ++j)
      dense[i] += kernel.eval(tgt_pts[i], src_pts[j]) * equiv[j];

  // FFT path. The tensor was built for target-minus-source coordinate
  // deltas, so rel = (dx, dy, dz).
  std::vector<fft::cplx> grid(ops.grid_size());
  ops.embed(equiv, grid);
  ops.plan().forward(grid);
  const auto rel = Operators::rel_index(dx, dy, dz);
  ASSERT_TRUE(rel.has_value());
  const auto t_hat = ops.m2l_spectrum(level, *rel);
  ASSERT_EQ(t_hat.size(), ops.grid_size());
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] *= t_hat[i];
  ops.plan().inverse(grid);
  std::vector<double> fft_result(ops.n_surf());
  ops.extract(grid, fft_result);

  for (std::size_t i = 0; i < dense.size(); ++i)
    EXPECT_NEAR(fft_result[i], dense[i], 1e-10 + 1e-10 * std::abs(dense[i]))
        << "surface index " << i;
}

TEST(Operators, DenseM2LDisabledSkipsTensors) {
  const LaplaceKernel kernel;
  const Operators ops(kernel, 0.5, 2, FmmConfig{.p = kP, .use_fft_m2l = false});
  EXPECT_EQ(ops.level(2).m2l, nullptr);
  const auto rel = Operators::rel_index(2, 0, 0);
  ASSERT_TRUE(rel.has_value());
  EXPECT_TRUE(ops.m2l_spectrum(2, *rel).empty());
}

TEST(Operators, HomogeneousRescaledLevelsMatchDirectBuild) {
  // Laplace operators at level 3/4 are produced by rescaling the level-2
  // build; they must agree with kernel matrices computed directly from
  // level-3/4 geometry (exactness of the scale-invariance shortcut).
  const LaplaceKernel kernel;
  const double root_half = 0.5;
  const Operators ops(kernel, root_half, 4, FmmConfig{.p = kP});
  for (int l : {3, 4}) {
    const double h = root_half / std::exp2(l);
    const Box box{{0, 0, 0}, h};
    const auto up_check = surface_points(kP, box, kRadiusOuter);
    const auto down_equiv = surface_points(kP, box, kRadiusOuter);
    for (unsigned o = 0; o < 8; ++o) {
      const Box child = box.child(o);
      const auto child_up_equiv = surface_points(kP, child, kRadiusInner);
      const auto m2m_direct = kernel.matrix(up_check, child_up_equiv);
      EXPECT_LT(ops.level(l).m2m[o].max_abs_diff(m2m_direct),
                1e-12 * m2m_direct.frobenius_norm())
          << "level " << l << " octant " << o;
      const auto child_down_check = surface_points(kP, child, kRadiusInner);
      const auto l2l_direct = kernel.matrix(child_down_check, down_equiv);
      EXPECT_LT(ops.level(l).l2l[o].max_abs_diff(l2l_direct),
                1e-12 * l2l_direct.frobenius_norm())
          << "level " << l << " octant " << o;
    }
    // The shared M2L bank: scaled spectrum at level l equals the level-2
    // spectrum times 2^(l-2) for the degree -1 Laplace kernel.
    const auto rel = Operators::rel_index(3, -2, 0);
    ASSERT_TRUE(rel.has_value());
    const auto ref = ops.m2l_spectrum(2, *rel);
    const auto got = ops.m2l_spectrum(l, *rel);
    ASSERT_EQ(ref.size(), got.size());
    const double expect_scale = std::exp2(l - 2);
    for (std::size_t k = 0; k < ref.size(); ++k)
      EXPECT_EQ(got[k], ref[k] * expect_scale) << "k = " << k;
    // And the rescaled surface templates match direct construction.
    const auto tmpl = ops.level(l).surf_inner;
    const auto direct = surface_points(kP, box, kRadiusInner);
    ASSERT_EQ(tmpl.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_DOUBLE_EQ(tmpl.x[i], direct[i].x);
      EXPECT_DOUBLE_EQ(tmpl.y[i], direct[i].y);
      EXPECT_DOUBLE_EQ(tmpl.z[i], direct[i].z);
    }
  }
}

TEST(Operators, LevelBelowTwoRejected) {
  const LaplaceKernel kernel;
  const Operators ops = make_ops(kernel);
  EXPECT_THROW(ops.level(0), util::ContractError);
  EXPECT_THROW(ops.level(1), util::ContractError);
  EXPECT_NO_THROW(ops.level(2));
}

TEST(Operators, InvalidConfigRejected) {
  const LaplaceKernel kernel;
  EXPECT_THROW(Operators(kernel, 0.5, 2, FmmConfig{.p = 2}),
               util::ContractError);
}

}  // namespace
}  // namespace eroof::fmm
