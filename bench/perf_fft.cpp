// Performance of the bundled FFT (1-D and the 3-D M2L grids).
#include <benchmark/benchmark.h>

#include "fft/fft.hpp"
#include "util/rng.hpp"

namespace {

using eroof::fft::cplx;

std::vector<cplx> random_signal(std::size_t n) {
  eroof::util::Rng rng(1);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const eroof::fft::Plan plan(n);
  auto x = random_signal(n);
  for (auto _ : state) {
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// 12 = M2L pencil (p=6).
BENCHMARK(BM_Fft1D)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(12);

void BM_Fft3D(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const eroof::fft::Plan3 plan(m, m, m);
  auto x = random_signal(plan.size());
  for (auto _ : state) {
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan.size()));
}
BENCHMARK(BM_Fft3D)->Arg(8)->Arg(12)->Arg(16);  // the KIFMM grid sizes

}  // namespace

BENCHMARK_MAIN();
