// Performance of the per-phase DVFS scheduler (core/schedule): the
// per-(phase, setting) prediction grid, the chain DP, and the Pareto sweep,
// over a real KIFMM profile and the 105-setting grid.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "core/schedule.hpp"

namespace {

using namespace eroof;

constexpr double kWeights[] = {0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};

struct Setup {
  std::shared_ptr<const model::TuneContext> ctx;
  std::vector<hw::Workload> phases;
};

/// The KIFMM chain at n=16384, q=64, priced over the shared context's
/// 105-setting grid and 100us+50uJ transitions.
Setup make_setup() {
  return {model::TuneContext::tegra_default(),
          bench::profile_fmm_input({"bench", 16384, 64}).workloads()};
}

void BM_PredictPhaseGrid(benchmark::State& state) {
  const Setup s = make_setup();
  for (auto _ : state) {
    auto pred = model::predict_phase_grid(s.ctx->model, s.ctx->soc, s.phases,
                                          s.ctx->grid);
    benchmark::DoNotOptimize(pred.energy_j.data());
  }
}
BENCHMARK(BM_PredictPhaseGrid)->Unit(benchmark::kMicrosecond);

void BM_ScheduleChainDp(benchmark::State& state) {
  const Setup s = make_setup();
  const auto pred = model::predict_phase_grid(s.ctx->model, s.ctx->soc,
                                              s.phases, s.ctx->grid);
  for (auto _ : state) {
    auto sched = model::schedule_phases(pred, s.ctx->transitions);
    benchmark::DoNotOptimize(sched.pick.data());
  }
}
BENCHMARK(BM_ScheduleChainDp)->Unit(benchmark::kMicrosecond);

void BM_ParetoFrontier(benchmark::State& state) {
  const Setup s = make_setup();
  const auto pred = model::predict_phase_grid(s.ctx->model, s.ctx->soc,
                                              s.phases, s.ctx->grid);
  for (auto _ : state) {
    auto frontier = model::pareto_frontier(pred, s.ctx->transitions, kWeights);
    benchmark::DoNotOptimize(frontier.data());
  }
}
BENCHMARK(BM_ParetoFrontier)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
