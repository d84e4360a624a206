// Performance of the measurement-and-modeling pipeline around the FMM: the
// paper's 116-point x 16-setting microbenchmark campaign (1856 samples), the
// NNLS fit, k-fold / leave-one-setting-out cross-validation, and the
// 105-setting autotune grid.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/autotune.hpp"
#include "core/crossval.hpp"
#include "core/fit.hpp"
#include "hw/soc.hpp"
#include "ubench/campaign.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;

constexpr std::uint64_t kCampaignSeed = 42;
constexpr std::uint64_t kKfoldSeed = 7;
constexpr std::uint64_t kGridSeed = 11;
constexpr int kFolds = 16;
constexpr int kGridRepeats = 3;

hw::Workload tune_workload() {
  // A mid-intensity SP sweep point: compute and DRAM both matter, so the
  // autotune argmin is not degenerate.
  return ub::intensity_sweep(ub::BenchClass::kSpFlops)[12].workload;
}

void BM_PaperCampaign(benchmark::State& state) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  for (auto _ : state) {
    auto samples =
        ub::paper_campaign(soc, pm, util::RngStream(kCampaignSeed));
    benchmark::DoNotOptimize(samples.data());
  }
}
BENCHMARK(BM_PaperCampaign)->Unit(benchmark::kMillisecond);

void BM_FitEnergyModel(benchmark::State& state) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto campaign =
      ub::paper_campaign(soc, pm, util::RngStream(kCampaignSeed));
  std::vector<model::FitSample> train;
  for (const auto& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      train.push_back(model::to_fit_sample(s.meas));
  for (auto _ : state) {
    auto fit = model::fit_energy_model(train);
    benchmark::DoNotOptimize(&fit);
  }
}
BENCHMARK(BM_FitEnergyModel)->Unit(benchmark::kMillisecond);

void BM_KfoldValidation(benchmark::State& state) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto campaign =
      ub::paper_campaign(soc, pm, util::RngStream(kCampaignSeed));
  std::vector<model::FitSample> all;
  for (const auto& s : campaign) all.push_back(model::to_fit_sample(s.meas));
  for (auto _ : state) {
    util::Rng krng(kKfoldSeed);
    auto rep = model::kfold_validation(all, kFolds, krng);
    benchmark::DoNotOptimize(&rep);
  }
}
BENCHMARK(BM_KfoldValidation)->Unit(benchmark::kMillisecond);

void BM_LeaveOneSettingOut(benchmark::State& state) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto campaign =
      ub::paper_campaign(soc, pm, util::RngStream(kCampaignSeed));
  std::vector<model::FitSample> all;
  for (const auto& s : campaign) all.push_back(model::to_fit_sample(s.meas));
  for (auto _ : state) {
    auto rep = model::leave_one_setting_out(all);
    benchmark::DoNotOptimize(&rep);
  }
}
BENCHMARK(BM_LeaveOneSettingOut)->Unit(benchmark::kMillisecond);

void BM_MeasureGridAutotune(benchmark::State& state) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto campaign =
      ub::paper_campaign(soc, pm, util::RngStream(kCampaignSeed));
  std::vector<model::FitSample> train;
  for (const auto& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      train.push_back(model::to_fit_sample(s.meas));
  const auto m = model::fit_energy_model(train).model;
  const auto w = tune_workload();
  const auto grid = hw::full_grid();
  for (auto _ : state) {
    const auto ms = model::measure_grid(soc, w, grid, pm,
                                        util::RngStream(kGridSeed),
                                        kGridRepeats);
    auto out = model::autotune(m, ms);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_MeasureGridAutotune)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
