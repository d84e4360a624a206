// The streaming re-fit path (core/refresh): incremental normal equations,
// the drift detector, and the ClosedLoopScheduler reference controller.
//
// The contracts pinned here are the ones the closed loop stands on:
// forgetting == 1 reproduces the batch fit *bit for bit* (the batch fit
// accumulates into the same la::NormalEquations and runs the same solve),
// forgetting < 1 ages an old thermal regime out of the fit, the EWMA
// detector stays quiet on a calibrated model and fires on a systematic
// bias, and the whole loop --
// OpenMP prediction grids included -- replays bitwise across thread counts.
#include "core/refresh.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/fit.hpp"
#include "core/schedule.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/pointgen.hpp"
#include "hw/dvfs.hpp"
#include "hw/soc.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::model {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool models_bit_equal(const EnergyModel& a, const EnergyModel& b) {
  for (std::size_t i = 0; i < kNumCoeffs; ++i)
    if (!bit_equal(a.c0[i], b.c0[i])) return false;
  return bit_equal(a.c1_proc, b.c1_proc) && bit_equal(a.c1_mem, b.c1_mem) &&
         bit_equal(a.p_misc, b.p_misc);
}

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

// Shared across tests: the default tuning context -- the seeded paper
// campaign's training half and the model fitted from it (the closed loop's
// seed state).
const std::shared_ptr<const TuneContext>& context() {
  static const auto ctx = TuneContext::tegra_default();
  return ctx;
}

const std::vector<FitSample>& campaign_train() {
  static const auto train = context()->samples(hw::SettingRole::kTrain);
  return train;
}

const EnergyModel& seed_model() { return context()->model; }

// Leakage-only samples (zero op counts): energy = pi_0(setting) * time,
// with pi_0 built from the given slope triple. Several distinct voltage
// pairs keep the three constant-power columns identifiable.
std::vector<FitSample> leakage_epoch(double c1p, double c1m, double pm,
                                     double time_s, int reps) {
  const auto grid = hw::full_grid();
  // A spread of (Vp, Vm) corners: min/max of each ladder plus mid points.
  const std::vector<std::size_t> idx = {0, grid.size() - 1, grid.size() / 2,
                                        grid.size() / 3, 2 * grid.size() / 3};
  std::vector<FitSample> out;
  for (int r = 0; r < reps; ++r)
    for (const std::size_t i : idx) {
      FitSample s;
      s.setting = grid[i];
      s.time_s = time_s;
      const double vp = s.setting.core.volt_v();
      const double vm = s.setting.mem.volt_v();
      s.energy_j = (c1p * vp + c1m * vm + pm) * time_s;
      out.push_back(s);
    }
  return out;
}

TEST(StreamedFit, ForgettingOneMatchesBatchFitBitwise) {
  const auto& train = campaign_train();
  la::NormalEquations inc(kNumFitColumns, 1.0);
  for (const FitSample& s : train) inc.add(design_row(s), s.energy_j);
  const FitResult stream = fit_energy_model(inc);
  const FitResult batch = fit_energy_model(train);
  EXPECT_TRUE(models_bit_equal(stream.model, batch.model));
  EXPECT_TRUE(bit_equal(stream.residual_norm, batch.residual_norm));
  EXPECT_EQ(stream.converged, batch.converged);
  EXPECT_EQ(stream.n_samples, batch.n_samples);
  EXPECT_EQ(inc.rows(), train.size());
  EXPECT_DOUBLE_EQ(inc.weight(), static_cast<double>(train.size()));
}

TEST(StreamedFit, ForgettingAgesOutOldRegime) {
  // Epoch A: cold leakage. Epoch B: every slope 1.5x (a hot die). With
  // forgetting, the fit lands on B; without, it is pulled toward the
  // stale epoch's average.
  const auto epoch_a = leakage_epoch(2.7, 3.8, 0.15, 0.1, 12);
  const auto epoch_b = leakage_epoch(4.05, 5.7, 0.225, 0.1, 12);

  la::NormalEquations forgetting(kNumFitColumns, 0.9);
  la::NormalEquations never(kNumFitColumns, 1.0);
  for (const auto* epoch : {&epoch_a, &epoch_b})
    for (const FitSample& s : *epoch) {
      forgetting.add(design_row(s), s.energy_j);
      never.add(design_row(s), s.energy_j);
    }

  const EnergyModel mf = fit_energy_model(forgetting).model;
  const EnergyModel mn = fit_energy_model(never).model;
  const hw::DvfsSetting probe = hw::full_grid().front();
  const double vp = probe.core.volt_v();
  const double vm = probe.mem.volt_v();
  const double pi0_b = 4.05 * vp + 5.7 * vm + 0.225;
  const double err_f = std::abs(mf.constant_power_w(probe) - pi0_b) / pi0_b;
  const double err_n = std::abs(mn.constant_power_w(probe) - pi0_b) / pi0_b;
  // 60 decayed epoch-A rows vs 60 fresh epoch-B rows at lambda = 0.9:
  // epoch A retains < 0.2% of its weight, so the fit sits on B.
  EXPECT_LT(err_f, 0.01);
  // The never-forget fit averages the epochs and misses B by a lot more.
  EXPECT_GT(err_n, 5.0 * err_f);
}

TEST(OnlineRefresh, QuietWhenCalibratedFiresOnSystematicBias) {
  OnlineRefreshConfig cfg;
  cfg.min_observations = 5;
  cfg.cooldown = 5;
  OnlineRefresh refresh(seed_model(), cfg);

  // Perfectly calibrated stream: measured == predicted. Drift stays 0.
  const auto calib = leakage_epoch(seed_model().c1_proc, seed_model().c1_mem,
                                   seed_model().p_misc, 0.1, 4);
  for (const FitSample& s : calib) refresh.observe(s);
  EXPECT_NEAR(refresh.drift(), 0.0, 1e-12);
  EXPECT_FALSE(refresh.should_refresh());

  // +30% systematic bias (leakage grew): the signed EWMA accumulates and
  // crosses the bound within a handful of observations.
  auto biased = calib;
  for (FitSample& s : biased) s.energy_j *= 1.3;
  for (const FitSample& s : biased) refresh.observe(s);
  EXPECT_GT(refresh.drift(), 0.05);
  EXPECT_TRUE(refresh.should_refresh());
}

TEST(OnlineRefresh, RefreshAdoptsRefitAndResetsDetector) {
  OnlineRefreshConfig cfg;
  cfg.min_observations = 5;
  cfg.cooldown = 5;
  OnlineRefresh refresh(seed_model(), cfg);
  // Stream a hotter regime than the seed model knows about.
  const auto hot = leakage_epoch(1.6 * seed_model().c1_proc,
                                 1.6 * seed_model().c1_mem,
                                 seed_model().p_misc, 0.1, 8);
  for (const FitSample& s : hot) refresh.observe(s);
  ASSERT_TRUE(refresh.should_refresh());

  const FitResult r = refresh.refresh();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(refresh.stats().refreshes, 1u);
  EXPECT_EQ(refresh.drift(), 0.0);
  EXPECT_FALSE(refresh.should_refresh());  // cooldown + reset EWMA
  // The refitted model prices the hot regime's constant power, the seed
  // does not.
  const hw::DvfsSetting probe = hw::full_grid().front();
  const double truth = 1.6 * seed_model().c1_proc * probe.core.volt_v() +
                       1.6 * seed_model().c1_mem * probe.mem.volt_v() +
                       seed_model().p_misc;
  const double err_new =
      std::abs(refresh.model().constant_power_w(probe) - truth);
  const double err_seed = std::abs(seed_model().constant_power_w(probe) - truth);
  EXPECT_LT(err_new, 0.2 * err_seed);
}

TEST(OnlineRefresh, RejectsNonFiniteSamples) {
  OnlineRefresh refresh(seed_model());
  const double nan = std::numeric_limits<double>::quiet_NaN();

  FitSample bad_energy = campaign_train().front();
  bad_energy.energy_j = nan;
  FitSample bad_time = campaign_train().front();
  bad_time.time_s = 0.0;
  FitSample bad_count = campaign_train().front();
  bad_count.ops[hw::OpClass::kSpFlop] = nan;

  const double before = refresh.drift();
  refresh.observe(bad_energy);
  refresh.observe(bad_time);
  refresh.observe(bad_count);
  EXPECT_EQ(refresh.stats().rejected, 3u);
  EXPECT_EQ(refresh.stats().observations, 0u);
  EXPECT_EQ(refresh.gram().rows(), 0u);
  EXPECT_TRUE(bit_equal(refresh.drift(), before));
  // A poisoned stream never reaches the normal equations, so a later
  // legitimate fit stays finite.
  for (const FitSample& s : campaign_train()) refresh.observe(s);
  EXPECT_TRUE(std::isfinite(refresh.refresh().model.p_misc));
}

TEST(Refresh, IdleProbeIsAPurePi0Row) {
  const hw::Workload probe = idle_probe_workload();
  for (const double c : probe.ops.n) EXPECT_EQ(c, 0.0);
  // Its design row has zero dynamic columns; only the three constant-power
  // columns are live.
  FitSample s;
  s.ops = probe.ops;
  s.setting = hw::full_grid().front();
  s.time_s = 15e-6;
  const auto row = design_row(s);
  for (std::size_t j = 0; j < kNumCoeffs; ++j) EXPECT_EQ(row[j], 0.0);
  for (std::size_t j = kNumCoeffs; j < kNumFitColumns; ++j)
    EXPECT_GT(row[j], 0.0);
  // And the simulated SoC executes it in the kernel-overhead time -- far
  // below one PowerMon sample period (the 2-point-trapezoid path).
  const auto soc = hw::Soc::tegra_k1();
  EXPECT_LT(soc.execution_time(probe, s.setting), 1.0 / 1024.0);
}

TEST(Refresh, OracleGridMatchesGroundTruth) {
  const auto soc = hw::Soc::tegra_k1().with_leakage_scale(1.5);
  hw::Workload w;
  w.name = "oracle_probe";
  w.ops[hw::OpClass::kSpFlop] = 1e9;
  w.ops[hw::OpClass::kDramAccess] = 1e7;
  const std::vector<hw::Workload> phases = {w};
  const auto grid = hw::full_grid();
  const PhaseGridPrediction pred = oracle_phase_grid(soc, phases, grid);
  ASSERT_EQ(pred.n_phases(), 1u);
  ASSERT_EQ(pred.n_settings(), grid.size());
  for (const std::size_t s : {std::size_t{0}, grid.size() - 1}) {
    const double t = soc.execution_time(w, grid[s]);
    EXPECT_TRUE(bit_equal(pred.time_at(0, s), t));
    EXPECT_TRUE(bit_equal(pred.energy_at(0, s), soc.true_energy_j(w, grid[s], t)));
    EXPECT_TRUE(
        bit_equal(pred.const_power_w[s], soc.true_constant_power_w(grid[s])));
  }
}

// ---------------------------------------------------------------------------
// ClosedLoopScheduler: the full loop on a thermally drifting SoC
// ---------------------------------------------------------------------------

// A heterogeneous phase chain (compute-bound / memory-bound / mixed), so
// per-phase scheduling is meaningful.
std::vector<hw::Workload> loop_phases() {
  // High compute utilization on purpose: those phases have *interior*
  // energy-optimal settings (the V^2-vs-pi_0*T balance point sits mid
  // ladder), which is what thermal drift moves. Low-utilization and
  // memory-bound phases race to a grid corner and stay there at any
  // leakage, so they would only dilute the static-vs-refreshed gap.
  hw::Workload compute;
  compute.name = "loop_compute";
  compute.ops[hw::OpClass::kSpFlop] = 8e9;
  compute.ops[hw::OpClass::kDramAccess] = 1e6;
  compute.compute_utilization = 0.95;
  compute.memory_utilization = 0.2;

  hw::Workload compute2;
  compute2.name = "loop_compute2";
  compute2.ops[hw::OpClass::kSpFlop] = 4e9;
  compute2.ops[hw::OpClass::kDramAccess] = 5e5;
  compute2.compute_utilization = 0.85;
  compute2.memory_utilization = 0.15;

  hw::Workload mixed;
  mixed.name = "loop_mixed";
  mixed.ops[hw::OpClass::kSpFlop] = 2e9;
  mixed.ops[hw::OpClass::kDramAccess] = 64e6;
  mixed.compute_utilization = 0.7;
  mixed.memory_utilization = 0.7;
  return {compute, compute2, mixed};
}

struct LoopOutcome {
  double static_true_j = 0;     ///< frozen seed schedule, ground truth
  double refreshed_true_j = 0;  ///< closed loop, ground truth
  double oracle_true_j = 0;     ///< per-step omniscient re-fit + DP
  double measured_j = 0;        ///< what the loop's meter integrated
  std::uint64_t refreshes = 0;
  EnergyModel final_model;
};

LoopOutcome run_thermal_ramp(int steps) {
  const auto& ctx = *context();
  const auto phases = loop_phases();
  const hw::DvfsTransitionModel& tm = ctx.transitions;
  const hw::ThermalRamp ramp{
      1.0, 5.0, 4, static_cast<std::uint64_t>(steps / 2), 0.0, 7};

  OnlineRefreshConfig cfg;
  cfg.min_observations = 8;
  cfg.cooldown = 8;
  ClosedLoopScheduler loop(context(), phases, cfg);
  // The frozen baseline: the loop's step-0 schedule, never revisited.
  const PhaseSchedule static_sched = loop.schedule();

  const util::RngStream noise(2024);
  LoopOutcome out;
  for (int k = 0; k < steps; ++k) {
    const double scale = ramp.scale_at(static_cast<std::uint64_t>(k));
    const hw::Soc hot = ctx.soc.with_leakage_scale(scale);
    // Ground-truth scores of all three controllers at this thermal state.
    const PhaseGridPrediction truth = oracle_phase_grid(hot, phases, ctx.grid);
    out.static_true_j +=
        price_schedule(truth, tm, static_sched.pick).pred_energy_j;
    out.refreshed_true_j +=
        price_schedule(truth, tm, loop.schedule().pick).pred_energy_j;
    out.oracle_true_j += schedule_phases(truth, tm).pred_energy_j;
    // The loop itself only sees its own noisy measurements.
    const auto rep = loop.step(scale, noise.fork(k));
    out.measured_j += rep.measured_energy_j;
  }
  out.refreshes = loop.refresh().stats().refreshes;
  out.final_model = loop.model();
  return out;
}

TEST(ClosedLoop, TracksThermalRampWhileStaticScheduleDegrades) {
  const LoopOutcome out = run_thermal_ramp(40);
  // The drift detector fired at least once over the 1.0 -> 5.0 ramp...
  EXPECT_GE(out.refreshes, 1u);
  // ...and the refreshed schedule dissipates measurably less ground-truth
  // energy than the frozen seed schedule...
  EXPECT_LT(out.refreshed_true_j, 0.99 * out.static_true_j);
  // ...while staying within a stated bound of the omniscient oracle that
  // re-fits from noiseless ground truth every step.
  EXPECT_GE(out.refreshed_true_j, out.oracle_true_j);
  EXPECT_LT(out.refreshed_true_j, 1.10 * out.oracle_true_j);
}

TEST(ClosedLoop, BitwiseDeterministicAcrossThreadCounts) {
  // The full refresh loop -- OpenMP prediction grids, measurement streams,
  // incremental Gram updates, refits -- replays bit for bit at 1, 2, and 4
  // threads: every noise draw is identity-keyed and every parallel region
  // has disjoint writes.
  const LoopOutcome base = with_threads(1, [] { return run_thermal_ramp(24); });
  for (const int threads : {2, 4}) {
    const LoopOutcome other =
        with_threads(threads, [] { return run_thermal_ramp(24); });
    EXPECT_TRUE(bit_equal(other.measured_j, base.measured_j))
        << "measured energy diverged at " << threads << " threads";
    EXPECT_TRUE(bit_equal(other.refreshed_true_j, base.refreshed_true_j));
    EXPECT_EQ(other.refreshes, base.refreshes);
    EXPECT_TRUE(models_bit_equal(other.final_model, base.final_model))
        << "refitted model diverged at " << threads << " threads";
  }
}

// The KIFMM chain of bench/ext_thermal_refresh's "hold" section (n=16384,
// q=64, p=4 on the uniform tree): every phase's optimum sits on a grid
// corner, so on the 1 -> 4x ramp every refit keeps the installed picks.
std::vector<hw::Workload> hold_phases() {
  static const fmm::LaplaceKernel kernel;
  util::Rng rng(1000 + 16384 + 64);
  const auto pts = fmm::uniform_cube(16384, rng);
  const fmm::FmmEvaluator ev(
      kernel, pts,
      {.max_points_per_box = 64,
       .uniform_depth = fmm::Octree::uniform_depth_for(16384, 64)},
      fmm::FmmConfig{.p = 4});
  return fmm::profile_gpu_execution(ev).workloads();
}

TEST(ClosedLoop, HeldRefitRepricesTheInstalledSchedule) {
  const auto& ctx = *context();
  const auto phases = hold_phases();
  OnlineRefreshConfig cfg;
  cfg.min_observations = 32;
  cfg.cooldown = 16;
  ClosedLoopScheduler loop(context(), phases, cfg);
  const std::vector<std::size_t> first = loop.schedule().pick;
  const hw::ThermalRamp ramp{1.0, 4.0, 4, 32, 0.0, 7};
  const util::RngStream noise(2024);
  int refits = 0;
  for (int k = 0; k < 64; ++k) {
    const auto rep = loop.step(ramp.scale_at(static_cast<std::uint64_t>(k)),
                               noise.fork(k));
    if (!rep.refreshed) continue;
    ++refits;
    // The dead-band held the picks...
    EXPECT_EQ(loop.schedule().pick, first) << "step " << k;
    // ...and the installed schedule's predictions are the refitted model's,
    // not the ones it was first installed with.
    const PhaseSchedule want = price_schedule(
        predict_phase_grid(loop.model(), ctx.soc, phases, ctx.grid),
        ctx.transitions, first);
    EXPECT_TRUE(bit_equal(loop.schedule().pred_energy_j, want.pred_energy_j))
        << "step " << k;
    EXPECT_TRUE(bit_equal(loop.schedule().pred_time_s, want.pred_time_s))
        << "step " << k;
  }
  EXPECT_EQ(refits, 18);
}

TEST(ClosedLoop, RetargetInstallsTheNewChainWithoutTheDeadband) {
  const auto& ctx = *context();
  ClosedLoopScheduler loop(context(), loop_phases());
  // Swap in a different chain: the installed schedule must be exactly the
  // chain DP for it under the (unrefitted) seed model.
  auto phases = loop_phases();
  phases.pop_back();
  loop.retarget(phases);
  const PhaseSchedule want = schedule_phases(
      predict_phase_grid(seed_model(), ctx.soc, phases, ctx.grid),
      ctx.transitions);
  EXPECT_EQ(loop.schedule().pick, want.pick);
  EXPECT_TRUE(bit_equal(loop.schedule().pred_energy_j, want.pred_energy_j));
  ASSERT_EQ(loop.settings().size(), phases.size());
  for (std::size_t p = 0; p < phases.size(); ++p)
    EXPECT_EQ(loop.settings()[p].label(), ctx.grid[want.pick[p]].label());
  EXPECT_EQ(loop.phases().size(), phases.size());
  EXPECT_THROW(loop.retarget({}), util::ContractError);
}

}  // namespace
}  // namespace eroof::model
