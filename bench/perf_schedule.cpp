// Performance of the per-phase DVFS scheduler (core/schedule): the
// per-(phase, setting) prediction grid, the chain DP, and the Pareto sweep,
// over a real KIFMM profile and the 105-setting grid.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/common.hpp"
#include "core/schedule.hpp"

namespace {

using namespace eroof;

constexpr double kWeights[] = {0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};

struct Setup {
  bench::Platform platform;
  std::vector<hw::Workload> phases;
  std::vector<hw::DvfsSetting> grid;
  hw::DvfsTransitionModel transitions{100e-6, 50e-6};
};

/// The KIFMM chain at n=16384, q=64 and the 105-setting grid.
Setup make_setup() {
  Setup s{bench::make_platform(), {}, hw::full_grid()};
  const auto prof = bench::profile_fmm_input({"bench", 16384, 64});
  for (const auto& ph : prof.phases) s.phases.push_back(ph.workload);
  return s;
}

void BM_PredictPhaseGrid(benchmark::State& state) {
  const Setup s = make_setup();
  for (auto _ : state) {
    auto pred = model::predict_phase_grid(s.platform.model, s.platform.soc,
                                          s.phases, s.grid);
    benchmark::DoNotOptimize(pred.energy_j.data());
  }
}
BENCHMARK(BM_PredictPhaseGrid)->Unit(benchmark::kMicrosecond);

void BM_ScheduleChainDp(benchmark::State& state) {
  const Setup s = make_setup();
  const auto pred = model::predict_phase_grid(s.platform.model, s.platform.soc,
                                              s.phases, s.grid);
  for (auto _ : state) {
    auto sched = model::schedule_phases(pred, s.transitions);
    benchmark::DoNotOptimize(sched.pick.data());
  }
}
BENCHMARK(BM_ScheduleChainDp)->Unit(benchmark::kMicrosecond);

void BM_ParetoFrontier(benchmark::State& state) {
  const Setup s = make_setup();
  const auto pred = model::predict_phase_grid(s.platform.model, s.platform.soc,
                                              s.phases, s.grid);
  for (auto _ : state) {
    auto frontier = model::pareto_frontier(pred, s.transitions, kWeights);
    benchmark::DoNotOptimize(frontier.data());
  }
}
BENCHMARK(BM_ParetoFrontier)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
