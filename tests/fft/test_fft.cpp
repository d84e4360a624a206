#include "fft/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::fft {
namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

/// O(n^2) reference DFT.
std::vector<cplx> naive_dft(std::span<const cplx> x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(j * k) /
                         static_cast<double>(n);
      acc += x[j] * cplx{std::cos(ang), std::sin(ang)};
    }
    out[k] = acc;
  }
  return out;
}

double max_err(std::span<const cplx> a, std::span<const cplx> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, n);
  const auto ref = naive_dft(x);
  Plan(n).forward(x);
  EXPECT_LT(max_err(x, ref), 1e-9 * static_cast<double>(n))
      << "size " << n;
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto orig = random_signal(n, 1000 + n);
  auto x = orig;
  const Plan plan(n);
  plan.forward(x);
  plan.inverse(x);
  EXPECT_LT(max_err(x, orig), 1e-11 * static_cast<double>(n));
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 2000 + n);
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Plan(n).forward(x);
  double freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * time_energy * static_cast<double>(n));
}

// Powers of two, smooth composites (12 = M2L grid for p=6), odd, primes
// (an O(n*p) butterfly: 11, 13, 31), and prime powers.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15,
                                           16, 25, 27, 32, 49, 60, 64, 11, 13,
                                           31, 121, 128, 240, 343, 256));

TEST(Fft, PrimeFactorAboveTheButterflyLimitThrows) {
  // 61 is the largest prime butterfly; 127 and 2 * 67 have no plan.
  EXPECT_NO_THROW(Plan(61));
  EXPECT_THROW(Plan(127), util::ContractError);
  EXPECT_THROW(Plan(134), util::ContractError);
  EXPECT_THROW(Plan3(4, 127, 4), util::ContractError);
}

TEST(Fft, ImpulseTransformsToAllOnes) {
  std::vector<cplx> x(16, cplx{0, 0});
  x[0] = {1, 0};
  Plan(16).forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToScaledImpulse) {
  std::vector<cplx> x(8, cplx{1, 0});
  Plan(8).forward(x);
  EXPECT_NEAR(x[0].real(), 8.0, 1e-12);
  for (std::size_t k = 1; k < 8; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 32;
  std::vector<cplx> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2.0 * std::numbers::pi * 5.0 * static_cast<double>(j) /
                       static_cast<double>(n);
    x[j] = {std::cos(ang), std::sin(ang)};
  }
  Plan(n).forward(x);
  EXPECT_NEAR(std::abs(x[5]), static_cast<double>(n), 1e-10);
  for (std::size_t k = 0; k < n; ++k)
    if (k != 5) {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
    }
}

TEST(Fft, Linearity) {
  const std::size_t n = 24;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  std::vector<cplx> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = 2.0 * a[i] + 3.0 * b[i];
  auto fa = a;
  auto fb = b;
  const Plan plan(n);
  plan.forward(fa);
  plan.forward(fb);
  plan.forward(combo);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(combo[i] - (2.0 * fa[i] + 3.0 * fb[i])), 1e-10);
}

TEST(Fft, CircularConvolutionMatchesNaive) {
  const std::size_t n = 20;
  const auto a = random_signal(n, 3);
  const auto b = random_signal(n, 4);
  // Convolution theorem on one plan: IDFT(DFT(a) * DFT(b)).
  const Plan plan(n);
  auto conv = a;
  auto fb = b;
  plan.forward(conv);
  plan.forward(fb);
  for (std::size_t k = 0; k < n; ++k) conv[k] *= fb[k];
  plan.inverse(conv);
  for (std::size_t k = 0; k < n; ++k) {
    cplx ref{0, 0};
    for (std::size_t j = 0; j < n; ++j) ref += a[j] * b[(k + n - j) % n];
    EXPECT_LT(std::abs(conv[k] - ref), 1e-10) << "index " << k;
  }
}

TEST(Fft, PlanIsReusable) {
  Plan plan(48);
  const auto orig = random_signal(48, 5);
  for (int rep = 0; rep < 3; ++rep) {
    auto x = orig;
    plan.forward(x);
    plan.inverse(x);
    EXPECT_LT(max_err(x, orig), 1e-10);
  }
}

}  // namespace
}  // namespace eroof::fft
