// Performance of the measurement-and-modeling pipeline around the FMM: the
// paper's 116-point x 16-setting microbenchmark campaign (1856 samples), the
// NNLS fit, k-fold / leave-one-setting-out cross-validation, and the
// 105-setting autotune grid.
//
// Two modes:
//   * default: the google-benchmark suite below.
//   * --bench-json[=path]: a benchmark-trajectory harness that times each
//     pipeline stage at several OpenMP thread counts, reduces the series to
//     median/p10/p90, checks that campaign samples / CV summaries / autotune
//     choices are bitwise identical to the 1-thread run, and writes one
//     machine-readable JSON file (default BENCH_pipeline.json). CI runs this
//     on every build so modeling-pipeline regressions show up as a data
//     point, not an anecdote.
#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/autotune.hpp"
#include "core/crossval.hpp"
#include "core/fit.hpp"
#include "hw/soc.hpp"
#include "ubench/campaign.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;
using bench::flag_value;
using bench::Summary;
using bench::summarize;
using bench::write_summary;

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

// ---------------------------------------------------------------------------
// google-benchmark suite
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// --bench-json trajectory harness
// ---------------------------------------------------------------------------

constexpr const char* kStages[] = {"campaign", "fit", "kfold", "loso",
                                   "autotune"};

/// One measured configuration: repeated pipeline executions at a fixed
/// OpenMP thread count.
struct Run {
  int threads = 0;
  bool bitwise_identical = true;
  std::vector<std::vector<double>> stage_ms{std::size(kStages)};
  std::vector<double> pipeline_ms;
};

/// The values whose bitwise stability across thread counts the harness
/// asserts: every campaign measurement, the pooled CV summaries, and the
/// autotune selections.
struct Outputs {
  std::vector<double> campaign_values;
  double kfold_mean = 0, kfold_max = 0;
  double loso_mean = 0, loso_max = 0;
  std::size_t model_idx = 0, oracle_idx = 0, best_idx = 0;
};

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_outputs(const Outputs& a, const Outputs& b) {
  if (a.campaign_values.size() != b.campaign_values.size()) return false;
  for (std::size_t i = 0; i < a.campaign_values.size(); ++i)
    if (!bit_equal(a.campaign_values[i], b.campaign_values[i])) return false;
  return bit_equal(a.kfold_mean, b.kfold_mean) &&
         bit_equal(a.kfold_max, b.kfold_max) &&
         bit_equal(a.loso_mean, b.loso_mean) &&
         bit_equal(a.loso_max, b.loso_max) && a.model_idx == b.model_idx &&
         a.oracle_idx == b.oracle_idx && a.best_idx == b.best_idx;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Executes the full campaign -> fit -> CV -> autotune pipeline once,
/// recording per-stage wall times and the stability-checked outputs.
Outputs run_pipeline(const hw::Soc& soc, const hw::PowerMon& pm, Run& run) {
  Outputs out;
  std::array<double, std::size(kStages)> ms{};

  double t0 = now_ms();
  const auto campaign =
      ub::paper_campaign(soc, pm, util::RngStream(kCampaignSeed));
  ms[0] = now_ms() - t0;

  out.campaign_values.reserve(3 * campaign.size());
  for (const auto& s : campaign) {
    out.campaign_values.push_back(s.meas.time_s);
    out.campaign_values.push_back(s.meas.energy_j);
    out.campaign_values.push_back(s.meas.avg_power_w);
  }

  std::vector<model::FitSample> train;
  std::vector<model::FitSample> all;
  all.reserve(campaign.size());
  for (const auto& s : campaign) {
    const auto fs = model::to_fit_sample(s.meas);
    all.push_back(fs);
    if (s.role == hw::SettingRole::kTrain) train.push_back(fs);
  }

  t0 = now_ms();
  const auto fit = model::fit_energy_model(train);
  ms[1] = now_ms() - t0;

  t0 = now_ms();
  util::Rng krng(kKfoldSeed);
  const auto kfold = model::kfold_validation(all, kFolds, krng);
  ms[2] = now_ms() - t0;
  out.kfold_mean = kfold.summary.mean;
  out.kfold_max = kfold.summary.max;

  t0 = now_ms();
  const auto loso = model::leave_one_setting_out(all);
  ms[3] = now_ms() - t0;
  out.loso_mean = loso.summary.mean;
  out.loso_max = loso.summary.max;

  t0 = now_ms();
  const auto grid = hw::full_grid();
  const auto measured =
      model::measure_grid(soc, tune_workload(), grid, pm,
                          util::RngStream(kGridSeed), kGridRepeats);
  const auto tuned = model::autotune(fit.model, measured);
  ms[4] = now_ms() - t0;
  out.model_idx = tuned.model_idx;
  out.oracle_idx = tuned.oracle_idx;
  out.best_idx = tuned.best_idx;

  double total = 0;
  for (std::size_t s = 0; s < std::size(kStages); ++s) {
    run.stage_ms[s].push_back(ms[s]);
    total += ms[s];
  }
  run.pipeline_ms.push_back(total);
  return out;
}

int run_bench_json(const std::string& path, int reps) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;

  const std::vector<int> thread_counts = bench::sweep_thread_counts();

  std::vector<Run> runs;
  Outputs reference;
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
#ifdef _OPENMP
    omp_set_num_threads(thread_counts[t]);
#endif
    Run run;
    run.threads = thread_counts[t];
    std::fprintf(stderr, "bench-json: threads=%d reps=%d\n", run.threads,
                 reps);
    for (int r = 0; r < reps; ++r) {
      const Outputs out = run_pipeline(soc, pm, run);
      if (t == 0 && r == 0)
        reference = out;
      else if (!same_outputs(reference, out))
        run.bitwise_identical = false;
    }
    runs.push_back(std::move(run));
  }

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench-json: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"model_pipeline\",\n";
  out << "  \"campaign_samples\": 1856,\n";
  out << "  \"kfold\": " << kFolds << ",\n";
  out << "  \"grid_settings\": 105,\n";
  out << "  \"grid_repeats\": " << kGridRepeats << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    out << "    {\n      \"threads\": " << run.threads
        << ",\n      \"bitwise_identical_vs_serial\": "
        << (run.bitwise_identical ? "true" : "false")
        << ",\n      \"pipeline\": ";
    write_summary(out, summarize(run.pipeline_ms));
    out << ",\n      \"stages\": {\n";
    for (std::size_t s = 0; s < std::size(kStages); ++s) {
      out << "        \"" << kStages[s] << "\": ";
      write_summary(out, summarize(run.stage_ms[s]));
      out << (s + 1 < std::size(kStages) ? ",\n" : "\n");
    }
    out << "      }\n    }" << (r + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "bench-json: wrote %s\n", path.c_str());

  for (const Run& run : runs)
    if (!run.bitwise_identical) {
      std::fprintf(stderr,
                   "bench-json: outputs at %d threads differ from the serial "
                   "run\n",
                   run.threads);
      return 1;
    }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool json_mode = false;
  int reps = 7;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (flag_value(argv[i], "--bench-json", &v)) {
      json_mode = true;
      json_path = v.empty() ? "BENCH_pipeline.json" : v;
    } else if (flag_value(argv[i], "--bench-reps", &v)) {
      reps = std::stoi(v);
    }
    v.clear();
  }
  if (json_mode) return run_bench_json(json_path, reps);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
