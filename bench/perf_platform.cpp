// Performance of the platform substrates: cache-hierarchy simulation,
// PowerMon sampling, and host microbenchmark kernels. The microbenchmark
// campaign is timed by perf_pipeline's BM_PaperCampaign.
#include <benchmark/benchmark.h>

#include "hw/cachesim.hpp"
#include "hw/powermon.hpp"
#include "ubench/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;

void BM_CacheSimStreaming(benchmark::State& state) {
  hw::MemoryHierarchy h;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    h.access(addr, 128, false);
    addr += 128;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheSimStreaming);

void BM_CacheSimHitting(benchmark::State& state) {
  hw::MemoryHierarchy h;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    h.access(addr % 8192, 128, false);
    addr += 128;
  }
}
BENCHMARK(BM_CacheSimHitting);

void BM_PowerMonMeasure(benchmark::State& state) {
  const hw::PowerMon pm;
  util::Rng rng(1);
  for (auto _ : state) {
    auto t = pm.measure_constant(1.0, 7.0, rng);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_PowerMonMeasure);

void BM_HostSpFma(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<float> data(1 << 20);
  for (auto& x : data) x = static_cast<float>(rng.uniform(0.1, 0.9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ub::sp_fma_stream(data, 8));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 4));
}
BENCHMARK(BM_HostSpFma);

void BM_HostScratchReuse(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<float> data(1 << 20);
  for (auto& x : data) x = static_cast<float>(rng.uniform(0.1, 0.9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ub::scratch_reuse_stream(data, 4));
  }
}
BENCHMARK(BM_HostScratchReuse);

}  // namespace

BENCHMARK_MAIN();
