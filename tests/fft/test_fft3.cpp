#include "fft/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "util/rng.hpp"

namespace eroof::fft {
namespace {

std::vector<cplx> random_grid(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

/// O(N^2) reference 3-D DFT of a row-major [n0][n1][n2] grid of N points.
std::vector<cplx> naive_dft3(std::span<const cplx> x, std::size_t n0,
                             std::size_t n1, std::size_t n2) {
  std::vector<cplx> out(x.size());
  const auto phase = [](std::size_t jk, std::size_t n) {
    return static_cast<double>(jk % n) / static_cast<double>(n);
  };
  for (std::size_t k0 = 0; k0 < n0; ++k0)
    for (std::size_t k1 = 0; k1 < n1; ++k1)
      for (std::size_t k2 = 0; k2 < n2; ++k2) {
        cplx acc{0, 0};
        for (std::size_t j0 = 0; j0 < n0; ++j0)
          for (std::size_t j1 = 0; j1 < n1; ++j1)
            for (std::size_t j2 = 0; j2 < n2; ++j2) {
              const double ang = -2.0 * std::numbers::pi *
                                 (phase(j0 * k0, n0) + phase(j1 * k1, n1) +
                                  phase(j2 * k2, n2));
              acc += x[(j0 * n1 + j1) * n2 + j2] *
                     cplx{std::cos(ang), std::sin(ang)};
            }
        out[(k0 * n1 + k1) * n2 + k2] = acc;
      }
  return out;
}

TEST(Fft3, MixedShapeMatchesNaiveDft) {
  // Axes 0 and 2 are powers of two: their pencils run the 1-D radix-2
  // pass; axis 1 runs the mixed-radix recursion.
  Plan3 plan(4, 6, 8);
  auto x = random_grid(plan.size(), 9);
  const auto ref = naive_dft3(x, 4, 6, 8);
  plan.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_LT(std::abs(x[i] - ref[i]), 1e-10) << "index " << i;
}

TEST(Fft3, RoundTripIdentity) {
  Plan3 plan(4, 6, 8);
  const auto orig = random_grid(plan.size(), 1);
  auto x = orig;
  plan.forward(x);
  plan.inverse(x);
  double m = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    m = std::max(m, std::abs(x[i] - orig[i]));
  EXPECT_LT(m, 1e-10);
}

TEST(Fft3, ImpulseIsFlatSpectrum) {
  Plan3 plan(3, 3, 3);
  std::vector<cplx> x(27, cplx{0, 0});
  x[0] = {1, 0};
  plan.forward(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cplx{1, 0}), 0.0, 1e-12);
}

TEST(Fft3, SeparableToneInOneBin) {
  const std::size_t n = 4;
  Plan3 plan(n, n, n);
  std::vector<cplx> x(n * n * n);
  // exp(-2 pi i (1*i0 + 2*i1 + 3*i2) / n) transforms to a delta at (1,2,3).
  for (std::size_t i0 = 0; i0 < n; ++i0)
    for (std::size_t i1 = 0; i1 < n; ++i1)
      for (std::size_t i2 = 0; i2 < n; ++i2) {
        const double ang = 2.0 * std::numbers::pi *
                           static_cast<double>(1 * i0 + 2 * i1 + 3 * i2) /
                           static_cast<double>(n);
        x[(i0 * n + i1) * n + i2] = {std::cos(ang), std::sin(ang)};
      }
  plan.forward(x);
  const std::size_t hot = (1 * n + 2) * n + 3;
  EXPECT_NEAR(std::abs(x[hot]), static_cast<double>(n * n * n), 1e-9);
  for (std::size_t i = 0; i < x.size(); ++i)
    if (i != hot) {
      EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-8);
    }
}

TEST(Fft3, MatchesThree1DPasses) {
  // A 1 x 1 x n grid is exactly a 1-D transform.
  const std::size_t n = 12;
  Plan3 plan3(1, 1, n);
  Plan plan1(n);
  auto a = random_grid(n, 3);
  auto b = a;
  plan3.forward(a);
  plan1.forward(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_LT(std::abs(a[i] - b[i]), 1e-12);
}

TEST(Fft3, CircularConvolve3MatchesNaive) {
  const std::size_t n = 4;
  Plan3 plan(n, n, n);
  const auto a = random_grid(n * n * n, 5);
  const auto b = random_grid(n * n * n, 6);
  // Convolution theorem on one plan: IDFT(DFT(a) * DFT(b)).
  auto conv = a;
  auto fb = b;
  plan.forward(conv);
  plan.forward(fb);
  for (std::size_t i = 0; i < conv.size(); ++i) conv[i] *= fb[i];
  plan.inverse(conv);

  const auto at = [n](std::span<const cplx> g, std::size_t i, std::size_t j,
                      std::size_t k) { return g[(i * n + j) * n + k]; };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k) {
        cplx ref{0, 0};
        for (std::size_t a0 = 0; a0 < n; ++a0)
          for (std::size_t a1 = 0; a1 < n; ++a1)
            for (std::size_t a2 = 0; a2 < n; ++a2)
              ref += at(a, a0, a1, a2) * at(b, (i + n - a0) % n,
                                            (j + n - a1) % n,
                                            (k + n - a2) % n);
        EXPECT_LT(std::abs(at(conv, i, j, k) - ref), 1e-9);
      }
}

TEST(Fft3, LinearityAcrossGrids) {
  Plan3 plan(2, 3, 4);
  const auto a = random_grid(plan.size(), 7);
  const auto b = random_grid(plan.size(), 8);
  std::vector<cplx> combo(plan.size());
  for (std::size_t i = 0; i < combo.size(); ++i)
    combo[i] = a[i] - 4.0 * b[i];
  auto fa = a;
  auto fb = b;
  plan.forward(fa);
  plan.forward(fb);
  plan.forward(combo);
  for (std::size_t i = 0; i < combo.size(); ++i)
    EXPECT_LT(std::abs(combo[i] - (fa[i] - 4.0 * fb[i])), 1e-10);
}

}  // namespace
}  // namespace eroof::fft
