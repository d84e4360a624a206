// Thread-count and iteration-order invariance of the parallel
// measurement-and-modeling pipeline: every campaign cell, CV fold, and
// autotune grid run draws from an RNG stream derived from its *identity*
// (workload name, setting label, repeat index), so results must be
// bitwise-identical under OMP_NUM_THREADS=1,2,8 and when the cell iteration
// order is reversed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/autotune.hpp"
#include "core/crossval.hpp"
#include "core/fit.hpp"
#include "hw/powermon.hpp"
#include "hw/soc.hpp"
#include "ubench/campaign.hpp"
#include "util/rng.hpp"

namespace eroof {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Runs `fn` with the given OpenMP thread count, restoring the old one after.
template <typename Fn>
auto with_threads(int num_threads, Fn&& fn) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(num_threads);
#else
  (void)num_threads;
#endif
  auto out = fn();
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return out;
}

std::vector<ub::BenchPoint> small_suite() {
  auto points = ub::intensity_sweep(ub::BenchClass::kSpFlops, 8e6);
  auto dram = ub::intensity_sweep(ub::BenchClass::kDram, 8e6);
  points.insert(points.end(), dram.begin(), dram.end());
  if (points.size() > 12) points.resize(12);
  return points;
}

std::vector<ub::Sample> run_small_campaign(
    const std::vector<ub::BenchPoint>& points,
    const std::vector<hw::LabeledSetting>& settings) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  return ub::run_campaign(soc, points, settings, pm, util::RngStream(42));
}

void expect_samples_bit_equal(const std::vector<ub::Sample>& a,
                              const std::vector<ub::Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].meas.workload, b[i].meas.workload) << i;
    EXPECT_TRUE(bit_equal(a[i].meas.time_s, b[i].meas.time_s)) << i;
    EXPECT_TRUE(bit_equal(a[i].meas.energy_j, b[i].meas.energy_j)) << i;
    EXPECT_TRUE(bit_equal(a[i].meas.avg_power_w, b[i].meas.avg_power_w)) << i;
  }
}

TEST(ParallelDeterminism, CampaignSamplesBitIdenticalAcrossThreadCounts) {
  const auto points = small_suite();
  const std::vector<hw::LabeledSetting> settings(
      hw::table1_settings().begin(), hw::table1_settings().begin() + 4);

  const auto t1 =
      with_threads(1, [&] { return run_small_campaign(points, settings); });
  ASSERT_FALSE(t1.empty());
  for (const int threads : {2, 8}) {
    const auto tn = with_threads(
        threads, [&] { return run_small_campaign(points, settings); });
    expect_samples_bit_equal(t1, tn);
  }
}

TEST(ParallelDeterminism, CampaignSamplesInvariantUnderIterationOrder) {
  const auto points = small_suite();
  const std::vector<hw::LabeledSetting> settings(
      hw::table1_settings().begin(), hw::table1_settings().begin() + 4);

  auto rev_points = points;
  std::reverse(rev_points.begin(), rev_points.end());
  auto rev_settings = settings;
  std::reverse(rev_settings.begin(), rev_settings.end());

  const auto fwd = run_small_campaign(points, settings);
  const auto rev = run_small_campaign(rev_points, rev_settings);
  ASSERT_EQ(fwd.size(), rev.size());

  // Match cells by identity (workload name, setting label): a cell's
  // measurement may not depend on where in the loop it was issued.
  const std::size_t np = points.size();
  const std::size_t ns = settings.size();
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t pi = 0; pi < np; ++pi) {
      const ub::Sample& f = fwd[si * np + pi];
      const ub::Sample& r = rev[(ns - 1 - si) * np + (np - 1 - pi)];
      ASSERT_EQ(f.meas.workload, r.meas.workload);
      ASSERT_EQ(f.meas.setting.label(), r.meas.setting.label());
      EXPECT_TRUE(bit_equal(f.meas.time_s, r.meas.time_s));
      EXPECT_TRUE(bit_equal(f.meas.energy_j, r.meas.energy_j));
      EXPECT_TRUE(bit_equal(f.meas.avg_power_w, r.meas.avg_power_w));
    }
  }
}

TEST(ParallelDeterminism, CrossValidationBitIdenticalAcrossThreadCounts) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto campaign =
      ub::run_campaign(soc, small_suite(), hw::table1_settings(), pm,
                       util::RngStream(7));
  std::vector<model::FitSample> samples;
  samples.reserve(campaign.size());
  for (const auto& s : campaign) samples.push_back(model::to_fit_sample(s.meas));

  const auto run_cv = [&] {
    util::Rng rng(123);  // fresh per run: identical fold permutation
    const auto kf = model::kfold_validation(samples, 8, rng);
    const auto loso = model::leave_one_setting_out(samples);
    return std::make_pair(kf, loso);
  };

  const auto [kf1, loso1] = with_threads(1, run_cv);
  for (const int threads : {2, 8}) {
    const auto [kfn, loson] = with_threads(threads, run_cv);
    ASSERT_EQ(kf1.errors_pct.size(), kfn.errors_pct.size());
    for (std::size_t i = 0; i < kf1.errors_pct.size(); ++i)
      EXPECT_TRUE(bit_equal(kf1.errors_pct[i], kfn.errors_pct[i])) << i;
    EXPECT_TRUE(bit_equal(kf1.summary.mean, kfn.summary.mean));
    EXPECT_TRUE(bit_equal(kf1.summary.max, kfn.summary.max));

    ASSERT_EQ(loso1.errors_pct.size(), loson.errors_pct.size());
    for (std::size_t i = 0; i < loso1.errors_pct.size(); ++i)
      EXPECT_TRUE(bit_equal(loso1.errors_pct[i], loson.errors_pct[i])) << i;
    EXPECT_TRUE(bit_equal(loso1.summary.mean, loson.summary.mean));
    EXPECT_TRUE(bit_equal(loso1.summary.max, loson.summary.max));
  }
}

TEST(ParallelDeterminism, TuneOutcomeBitIdenticalAcrossThreadCounts) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;

  hw::Workload w;
  w.name = "pd_tune";
  w.ops[hw::OpClass::kSpFlop] = 1e9;
  w.ops[hw::OpClass::kDramAccess] = 64e6;
  const auto grid = hw::full_grid();

  const auto campaign = ub::run_campaign(
      soc, small_suite(), hw::table1_settings(), pm, util::RngStream(11));
  std::vector<model::FitSample> train;
  for (const auto& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      train.push_back(model::to_fit_sample(s.meas));
  const auto m = model::fit_energy_model(train).model;

  const auto tune_once = [&] {
    const auto ms =
        model::measure_grid(soc, w, grid, pm, util::RngStream(17), 3);
    return model::autotune(m, ms);
  };

  const auto t1 = with_threads(1, tune_once);
  for (const int threads : {2, 8}) {
    const auto tn = with_threads(threads, tune_once);
    EXPECT_EQ(t1.model_idx, tn.model_idx);
    EXPECT_EQ(t1.oracle_idx, tn.oracle_idx);
    EXPECT_EQ(t1.best_idx, tn.best_idx);
    EXPECT_TRUE(bit_equal(t1.model_lost_pct, tn.model_lost_pct));
    EXPECT_TRUE(bit_equal(t1.oracle_lost_pct, tn.oracle_lost_pct));
  }
}

TEST(ParallelDeterminism, MeasureGridInvariantUnderGridOrder) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "pd_grid_order";
  w.ops[hw::OpClass::kDramAccess] = 128e6;

  auto grid = hw::full_grid();
  auto rev_grid = grid;
  std::reverse(rev_grid.begin(), rev_grid.end());

  const auto fwd = model::measure_grid(soc, w, grid, pm, util::RngStream(5), 2);
  const auto rev =
      model::measure_grid(soc, w, rev_grid, pm, util::RngStream(5), 2);
  ASSERT_EQ(fwd.size(), rev.size());
  const std::size_t n = fwd.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& f = fwd[i];
    const auto& r = rev[n - 1 - i];
    ASSERT_EQ(f.setting.label(), r.setting.label());
    EXPECT_TRUE(bit_equal(f.time_s, r.time_s)) << i;
    EXPECT_TRUE(bit_equal(f.energy_j, r.energy_j)) << i;
    EXPECT_TRUE(bit_equal(f.avg_power_w, r.avg_power_w)) << i;
  }
}

}  // namespace
}  // namespace eroof
