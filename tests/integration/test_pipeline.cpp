// Full-pipeline integration: microbenchmark campaign -> NNLS fit -> the
// fitted model predicts the *FMM's* measured energy within the paper's
// error band (Fig. 5: mean 6.17%, max 14.89% over 64 cases), and the
// energy decompositions reproduce the paper's qualitative findings
// (Section IV-C).
#include <gtest/gtest.h>

#include "core/autotune.hpp"
#include "core/crossval.hpp"
#include "core/profile.hpp"
#include "core/schedule.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/pointgen.hpp"
#include "ubench/campaign.hpp"
#include "util/require.hpp"

namespace eroof {
namespace {

/// The shared tuning context: the paper's seed-42 microbenchmark campaign
/// and the model fitted on its training half.
const model::TuneContext& context() {
  static const auto ctx = model::TuneContext::tegra_default();
  return *ctx;
}

struct FmmRun {
  fmm::FmmGpuProfile profile;
  hw::Workload total;
};

FmmRun profile_fmm(std::size_t n, std::uint32_t q) {
  static const fmm::LaplaceKernel kernel;
  util::Rng rng(7);
  const auto pts = fmm::uniform_cube(n, rng);
  fmm::FmmEvaluator ev(
      kernel, pts,
      {.max_points_per_box = q,
       .uniform_depth = fmm::Octree::uniform_depth_for(n, q)},
      fmm::FmmConfig{.p = 4});
  FmmRun run{fmm::profile_gpu_execution(ev), {}};
  run.total = run.profile.total("fmm");
  return run;
}

/// The one profile every FMM test here reads, built once.
const FmmRun& fmm_run() {
  static const FmmRun run = profile_fmm(16384, 64);
  return run;
}

TEST(Pipeline, HoldoutValidationInPaperBand) {
  const auto& p = context();
  const auto rep =
      model::validate(p.model, p.samples(hw::SettingRole::kValidate));
  // Paper: mean 2.87%, sd 2.47%, max 11.94%. Same order here.
  EXPECT_LT(rep.summary.mean, 6.0);
  EXPECT_LT(rep.summary.max, 25.0);
}

TEST(Pipeline, FmmEnergyPredictedWithinPaperBand) {
  const auto& p = context();
  const auto& run = fmm_run();

  const hw::PowerMon pm;
  const util::RngStream root(11);
  std::vector<double> errors;
  for (const auto& setting : hw::table4_settings()) {
    double t_total = 0;
    double e_meas = 0;
    hw::OpCounts ops;
    for (const auto& ph : run.profile.phases) {
      const auto m = p.soc.run(ph.workload, setting, pm,
                               root.fork(setting.label()).fork(ph.name));
      t_total += m.time_s;
      e_meas += m.energy_j;
      ops += ph.workload.ops;
    }
    const double e_pred = p.model.predict_energy_j(ops, setting, t_total);
    errors.push_back(util::relative_error_pct(e_pred, e_meas));
  }
  const auto s = util::summarize(errors);
  // Paper Fig. 5: mean 6.17%, max 14.89%.
  EXPECT_LT(s.mean, 12.0);
  EXPECT_LT(s.max, 30.0);
}

TEST(Pipeline, ConstantPowerDominatesFmmEnergy) {
  // Paper Fig. 7: constant power is 75-95% of the FMM's total energy.
  const auto& p = context();
  const auto& run = fmm_run();
  const auto s1 = hw::setting(852, 924);

  double t_total = 0;
  for (const auto& ph : run.profile.phases)
    t_total += p.soc.execution_time(ph.workload, s1);
  const auto bd = model::breakdown(p.model, run.total.ops, s1, t_total);
  const double const_share = bd.constant_j / bd.total_j();
  EXPECT_GT(const_share, 0.65);
  EXPECT_LT(const_share, 0.97);
}

TEST(Pipeline, MicrobenchConstantShareMuchLowerThanFmm) {
  // The contrast the paper draws in Section IV-C: microbenchmarks ~30%
  // constant power vs 75-95% for the FMM.
  const auto& p = context();
  const auto s1 = hw::setting(852, 924);

  // A high-intensity SP microbenchmark point.
  const auto sweep = ub::intensity_sweep(ub::BenchClass::kSpFlops);
  const auto& hot = sweep.back().workload;
  const double t_ub = p.soc.execution_time(hot, s1);
  const auto bd_ub = model::breakdown(p.model, hot.ops, s1, t_ub);

  const auto& run = fmm_run();
  double t_fmm = 0;
  for (const auto& ph : run.profile.phases)
    t_fmm += p.soc.execution_time(ph.workload, s1);
  const auto bd_fmm = model::breakdown(p.model, run.total.ops, s1, t_fmm);

  EXPECT_LT(bd_ub.constant_j / bd_ub.total_j(),
            0.8 * bd_fmm.constant_j / bd_fmm.total_j());
}

TEST(Pipeline, FmmBestEnergyIsBestTimeSetting) {
  // Paper Section IV-C: because constant power dominates, the FMM's most
  // energy-efficient setting is also its fastest.
  const auto& p = context();
  const auto& run = fmm_run();

  const hw::PowerMon pm;
  const util::RngStream root(13);
  const auto grid = hw::full_grid();
  double best_e = 1e300;
  double best_t = 1e300;
  std::size_t best_e_idx = 0;
  std::size_t best_t_idx = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    double t = 0;
    double e = 0;
    for (const auto& ph : run.profile.phases) {
      const auto m = p.soc.run(ph.workload, grid[i], pm,
                               root.fork(grid[i].label()).fork(ph.name));
      t += m.time_s;
      e += m.energy_j;
    }
    if (e < best_e) {
      best_e = e;
      best_e_idx = i;
    }
    if (t < best_t) {
      best_t = t;
      best_t_idx = i;
    }
  }
  // Identical or at worst adjacent on the ladder: compare labels loosely by
  // requiring the energy-best setting to be within 2% energy of running at
  // the time-best setting.
  double e_at_tbest = 0;
  const auto& t_best = grid[best_t_idx];
  const util::RngStream root2 = util::RngStream(14).fork(t_best.label());
  for (const auto& ph : run.profile.phases)
    e_at_tbest +=
        p.soc.run(ph.workload, t_best, pm, root2.fork(ph.name)).energy_j;
  EXPECT_LT(e_at_tbest, 1.05 * best_e)
      << "time-best " << grid[best_t_idx].label() << " vs energy-best "
      << grid[best_e_idx].label();
}

TEST(Pipeline, UtilizationDrivesTheConstantShare) {
  // White-box confirmation of the paper's hypothesis: the same FMM counts
  // at full utilization would NOT be constant-power dominated.
  const auto& p = context();
  const auto& run = fmm_run();
  const auto s1 = hw::setting(852, 924);

  hw::Workload full_util = run.total;
  full_util.compute_utilization = 1.0;
  full_util.memory_utilization = 1.0;
  const double t_full = p.soc.execution_time(full_util, s1);
  const auto bd_full = model::breakdown(p.model, full_util.ops, s1, t_full);

  double t_real = 0;
  for (const auto& ph : run.profile.phases)
    t_real += p.soc.execution_time(ph.workload, s1);
  const auto bd_real = model::breakdown(p.model, run.total.ops, s1, t_real);

  EXPECT_LT(bd_full.constant_j / bd_full.total_j(),
            bd_real.constant_j / bd_real.total_j());
}

}  // namespace
}  // namespace eroof
