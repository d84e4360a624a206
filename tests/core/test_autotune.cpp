#include "core/autotune.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

#include "core/schedule.hpp"

namespace eroof::model {
namespace {

const EnergyModel& fitted_model() {
  static const auto ctx = TuneContext::tegra_default();
  return ctx->model;
}

TEST(Autotune, GridMeasurementCoversAllSettings) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "at_test";
  w.ops[hw::OpClass::kSpFlop] = 1e9;
  w.ops[hw::OpClass::kDramAccess] = 64e6;
  const auto grid = hw::full_grid();
  const auto ms = measure_grid(soc, w, grid, pm, util::RngStream(1));
  EXPECT_EQ(ms.size(), 105u);
}

TEST(Autotune, BestIndexIsTheMeasuredArgmin) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "at_argmin";
  w.ops[hw::OpClass::kDramAccess] = 256e6;
  const auto grid = hw::full_grid();
  const auto ms = measure_grid(soc, w, grid, pm, util::RngStream(2));
  const TuneOutcome out = autotune(fitted_model(), ms);
  for (const auto& m : ms)
    EXPECT_GE(m.energy_j, ms[out.best_idx].energy_j);
  EXPECT_DOUBLE_EQ(out.model_lost_pct >= 0, true);
}

TEST(Autotune, MemoryBoundWorkloadShouldNotRaceCoreClock) {
  // For a pure-DRAM stream the core clock only adds voltage cost; the model
  // must pick a low core frequency, and it must beat the time oracle
  // (which race-to-halts to the highest clocks).
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "at_membound";
  w.ops[hw::OpClass::kDramAccess] = 512e6;
  w.ops[hw::OpClass::kIntOp] = 1e6;
  const auto grid = hw::full_grid();
  const auto ms = measure_grid(soc, w, grid, pm, util::RngStream(3));
  const TuneOutcome out = autotune(fitted_model(), ms);

  EXPECT_LT(ms[out.model_idx].setting.core.freq_mhz, 400);
  EXPECT_LE(out.model_lost_pct, out.oracle_lost_pct + 1e-9);
}

TEST(Autotune, ComputeBoundWorkloadShouldNotRaceMemClock) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "at_compbound";
  w.ops[hw::OpClass::kSpFlop] = 6e10;
  w.ops[hw::OpClass::kDramAccess] = 1e6;
  const auto grid = hw::full_grid();
  const auto ms = measure_grid(soc, w, grid, pm, util::RngStream(4));
  const TuneOutcome out = autotune(fitted_model(), ms);
  // The memory ladder's low rungs cost least here.
  EXPECT_LT(ms[out.model_idx].setting.mem.freq_mhz, 500);
}

TEST(Autotune, LostPctZeroWhenChoiceIsBest) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "at_zero";
  w.ops[hw::OpClass::kL2Access] = 4e8;
  const auto grid = hw::full_grid();
  const auto ms = measure_grid(soc, w, grid, pm, util::RngStream(5));
  const TuneOutcome out = autotune(fitted_model(), ms);
  if (out.model_correct) {
    EXPECT_LE(out.model_lost_pct, 0.5);
  }
  if (out.oracle_correct) {
    EXPECT_LE(out.oracle_lost_pct, 0.5);
  }
}

TEST(Autotune, EmptyGridThrows) {
  const std::vector<hw::Measurement> empty;
  EXPECT_THROW(autotune(fitted_model(), empty), util::ContractError);
}

TEST(Autotune, SingleCandidateGridIsDegenerateButFinite) {
  // With one candidate every strategy picks it; lost percentages must be
  // exactly zero even when the lone measured energy is zero (the guard
  // against a degenerate best_energy denominator).
  hw::Measurement only;
  only.setting = hw::setting(396, 528);
  only.time_s = 1.0;
  only.energy_j = 0.0;  // degenerate: division by best_energy would be 0/0
  EnergyModel m;
  m.c0 = {29e-12, 139e-12, 60e-12, 35e-12, 90e-12, 377e-12};
  m.c1_proc = 2.7;
  m.c1_mem = 3.8;
  const std::vector<hw::Measurement> grid{only};
  const TuneOutcome out = autotune(m, grid);
  EXPECT_EQ(out.model_idx, 0u);
  EXPECT_EQ(out.oracle_idx, 0u);
  EXPECT_EQ(out.best_idx, 0u);
  EXPECT_EQ(out.model_lost_pct, 0.0);
  EXPECT_EQ(out.oracle_lost_pct, 0.0);
  EXPECT_TRUE(out.model_correct);
  EXPECT_TRUE(out.oracle_correct);
}

TEST(Autotune, OracleTieBreakPrefersHigherClocks) {
  // Two measurements with identical time: the oracle must take the higher
  // core frequency (race-to-halt convention).
  hw::Measurement a;
  a.setting = hw::setting(396, 528);
  a.time_s = 1.0;
  a.energy_j = 5.0;
  hw::Measurement b;
  b.setting = hw::setting(852, 528);
  b.time_s = 1.0;
  b.energy_j = 7.0;
  EnergyModel m;
  m.c0 = {29e-12, 139e-12, 60e-12, 35e-12, 90e-12, 377e-12};
  m.c1_proc = 2.7;
  m.c1_mem = 3.8;
  const std::vector<hw::Measurement> grid{a, b};
  const TuneOutcome out = autotune(m, grid);
  EXPECT_EQ(out.oracle_idx, 1u);  // 852 MHz despite equal time
  EXPECT_EQ(out.best_idx, 0u);    // but 396 MHz measured cheaper
  EXPECT_FALSE(out.oracle_correct);
}

hw::Soc jittery_soc() {
  // Tegra-K1-like physics with strongly heteroscedastic run-to-run noise:
  // each repeat of a setting draws a different timing/thermal jitter, so the
  // per-run power ratios e_r / t_r scatter. Averaging those ratios (the
  // pre-fix mean-of-ratios) drifts from summed-energy-over-summed-time.
  hw::GroundTruthEnergy truth;
  truth.k_dyn_pj = {27.3, 131.1, 56.6, 33.4, 40.0, 85.0, 369.6};
  truth.c1_proc_w_per_v = 2.7;
  truth.c1_mem_w_per_v = 3.8;
  truth.p_misc_w = 0.15;
  truth.thermal_jitter = 0.10;
  truth.timing_jitter = 0.20;
  return hw::Soc(truth, hw::MachineRates{});
}

TEST(Autotune, AveragedPowerIsSummedEnergyOverSummedTime) {
  // Regression: measure_grid used to average the per-run power ratios, so
  // the folded Measurement violated energy_j ~= avg_power_w * time_s as soon
  // as repeats were noisy. The averaged triple must stay self-consistent.
  const auto soc = jittery_soc();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "at_avgpower";
  w.ops[hw::OpClass::kSpFlop] = 2e9;
  w.ops[hw::OpClass::kDramAccess] = 64e6;
  const std::vector<hw::DvfsSetting> grid = {
      hw::setting(72, 68), hw::setting(396, 528), hw::setting(852, 924)};
  const auto ms =
      measure_grid(soc, w, grid, pm, util::RngStream(11), /*repeats=*/6);
  ASSERT_EQ(ms.size(), grid.size());
  for (const auto& m : ms) {
    ASSERT_GT(m.time_s, 0.0);
    EXPECT_NEAR(m.avg_power_w * m.time_s, m.energy_j, 1e-12 * m.energy_j)
        << m.setting.label();
  }
}

TEST(Autotune, OracleTieBreakToleratesMeasurementNoise) {
  // Regression: the race-to-halt tie-break compared measured times with
  // exact ==, which never fires under noise. A candidate within the relative
  // tolerance of the fastest must count as tied, and the tie must go to the
  // higher clocks. 68 and 204 MHz memory share 800 mV, so the hotter pick
  // costs the same physical energy (oracle_correct must hold).
  hw::Measurement slow_low;
  slow_low.setting = hw::setting(852, 68);
  slow_low.time_s = 1.0;  // measured fastest by a hair
  slow_low.energy_j = 5.0;
  hw::Measurement fast_high;
  fast_high.setting = hw::setting(852, 204);
  fast_high.time_s = 1.0004;  // within the 0.5% tie tolerance
  fast_high.energy_j = 5.002;  // same voltage; split only by meter noise
  EnergyModel m;
  m.c0 = {29e-12, 139e-12, 60e-12, 35e-12, 90e-12, 377e-12};
  m.c1_proc = 2.7;
  m.c1_mem = 3.8;
  const std::vector<hw::Measurement> grid{slow_low, fast_high};
  const TuneOutcome out = autotune(m, grid);
  EXPECT_EQ(out.oracle_idx, 1u);  // 852/204 despite not being the strict min
  EXPECT_EQ(out.best_idx, 0u);
  EXPECT_TRUE(out.oracle_correct);  // 0.04% off the minimum: a physical tie
  EXPECT_LT(out.oracle_lost_pct, 0.5);
}

TEST(Autotune, ExactEnergyTiesAcrossSharedVoltageCountAsCorrect) {
  // Two settings at identical voltages tie in *physical* energy; only meter
  // noise separates their measurements. Whichever the model picks must score
  // as correct with a sub-tolerance loss.
  hw::Measurement a;  // listed first so equal predictions pick this index
  a.setting = hw::setting(852, 204);
  a.time_s = 1.0;
  a.energy_j = 5.0001;  // noise puts it a hair above the "best"
  hw::Measurement b;
  b.setting = hw::setting(852, 68);
  b.time_s = 1.0;
  b.energy_j = 5.0;
  EnergyModel m;
  m.c0 = {};  // no per-op terms: prediction is pure constant power x time
  m.c1_proc = 2.7;
  m.c1_mem = 3.8;
  const std::vector<hw::Measurement> grid{a, b};
  const TuneOutcome out = autotune(m, grid);
  // Equal voltages + equal times -> exactly tied predictions -> first index.
  EXPECT_EQ(out.model_idx, 0u);
  EXPECT_EQ(out.best_idx, 1u);
  EXPECT_TRUE(out.model_correct);
  EXPECT_LT(out.model_lost_pct, 0.5);
  EXPECT_GT(out.model_lost_pct, 0.0);
}

TEST(Autotune, ChoicesInvariantUnderGridPermutation) {
  // The tuned *settings* (not indices) must not depend on the order the grid
  // was measured in: both tie-breaks resolve by setting identity, never by
  // position among equals.
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  hw::Workload w;
  w.name = "at_perm";
  w.ops[hw::OpClass::kSpFlop] = 1e9;
  w.ops[hw::OpClass::kDramAccess] = 128e6;
  w.compute_utilization = 0.8;
  w.memory_utilization = 0.9;
  const auto grid = hw::full_grid();
  const auto ms = measure_grid(soc, w, grid, pm, util::RngStream(13));
  std::vector<hw::Measurement> reversed(ms.rbegin(), ms.rend());

  const auto& m = fitted_model();
  const TuneOutcome fwd = autotune(m, ms);
  const TuneOutcome rev = autotune(m, reversed);
  EXPECT_EQ(ms[fwd.model_idx].setting.label(),
            reversed[rev.model_idx].setting.label());
  EXPECT_EQ(ms[fwd.oracle_idx].setting.label(),
            reversed[rev.oracle_idx].setting.label());
  EXPECT_EQ(ms[fwd.best_idx].setting.label(),
            reversed[rev.best_idx].setting.label());
  EXPECT_EQ(fwd.model_correct, rev.model_correct);
  EXPECT_EQ(fwd.oracle_correct, rev.oracle_correct);
  EXPECT_DOUBLE_EQ(fwd.model_lost_pct, rev.model_lost_pct);
  EXPECT_DOUBLE_EQ(fwd.oracle_lost_pct, rev.oracle_lost_pct);
}

}  // namespace
}  // namespace eroof::model
