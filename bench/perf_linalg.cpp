// Performance of the dense kernels behind the fit (NNLS) and the KIFMM
// operators (SVD-based pseudo-inverse).
#include <benchmark/benchmark.h>

#include "linalg/nnls.hpp"
#include "linalg/svd.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;

la::Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(0, 1);
  return a;
}

void BM_Nnls(benchmark::State& state) {
  // The model fit's shape: 1856 samples x 9 physical coefficients, timed as
  // the fit runs it -- accumulate the normal equations, then solve.
  const auto a = random_matrix(1856, 9, 3);
  const std::vector<double> x_true{1, 2, 0, 4, 0.5, 3, 1, 0, 2};
  const auto b = la::matvec(a, x_true);
  for (auto _ : state) {
    la::NormalEquations eq(a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) eq.add(a.row(i), b[i]);
    auto r = eq.solve();
    benchmark::DoNotOptimize(r.x.data());
  }
}
BENCHMARK(BM_Nnls);

void BM_SvdPinv(benchmark::State& state) {
  // The KIFMM check-to-equivalent operators: 56^2 (p=4) and 152^2 (p=6).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, n, 4);
  for (auto _ : state) {
    auto p = la::pinv_tikhonov(a, 1e-10);
    benchmark::DoNotOptimize(&p);
  }
}
BENCHMARK(BM_SvdPinv)->Arg(56)->Arg(152)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
