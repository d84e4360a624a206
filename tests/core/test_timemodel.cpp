#include "core/timemodel.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/stats.hpp"

#include "core/schedule.hpp"

namespace eroof::model {
namespace {

struct Fitted {
  hw::Soc soc;
  std::vector<FitSample> samples;
  TimeModel time;
  EnergyModel energy;
};

const Fitted& fitted() {
  static const Fitted f = [] {
    const auto ctx = TuneContext::tegra_default();
    Fitted out{ctx->soc, ctx->all_samples(), {}, ctx->model};
    out.time = fit_time_model(out.samples).model;
    return out;
  }();
  return f;
}

TEST(TimeModel, FitConverges) {
  const auto r = fit_time_model(fitted().samples);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 20);
}

TEST(TimeModel, CoefficientsAreNonNegative) {
  const TimeModel& m = fitted().time;
  for (double c : m.core_cycles_per_op) EXPECT_GE(c, 0.0);
  EXPECT_GT(m.mem_cycles_per_word, 0.0);
}

TEST(TimeModel, DramRateNearTheMachine) {
  // Ground truth: 4 words per memory cycle at ~90% utilization, so the
  // effective cycles-per-word should land near 1/(4 * 0.9) ~ 0.28.
  EXPECT_NEAR(fitted().time.mem_cycles_per_word, 0.28, 0.12);
}

TEST(TimeModel, PredictsCampaignTimesWithin20Percent) {
  const auto& f = fitted();
  std::vector<double> errors;
  for (const auto& s : f.samples)
    errors.push_back(util::relative_error_pct(
        f.time.predict_time_s(s.ops, s.setting), s.time_s));
  const auto sum = util::summarize(errors);
  EXPECT_LT(sum.mean, 20.0);
}

TEST(TimeModel, ComputeBoundTimeScalesWithCoreClock) {
  const TimeModel& m = fitted().time;
  hw::OpCounts ops;
  ops[hw::OpClass::kSpFlop] = 1e10;
  ops[hw::OpClass::kDramAccess] = 1e5;
  const double hi = m.predict_time_s(ops, hw::setting(852, 924));
  const double lo = m.predict_time_s(ops, hw::setting(396, 924));
  EXPECT_NEAR(lo / hi, 852.0 / 396.0, 0.01);
}

TEST(TimeModel, MemoryBoundTimeScalesWithMemClock) {
  const TimeModel& m = fitted().time;
  hw::OpCounts ops;
  ops[hw::OpClass::kDramAccess] = 1e9;
  const double hi = m.predict_time_s(ops, hw::setting(852, 924));
  const double lo = m.predict_time_s(ops, hw::setting(852, 204));
  EXPECT_NEAR(lo / hi, 924.0 / 204.0, 0.01);
}

TEST(TimeModel, PredictiveTuningNearMeasuredOptimum) {
  // End-to-end: pick a setting purely from predictions, then check its
  // *true* energy is close to the grid's true minimum.
  const auto& f = fitted();
  const auto grid = hw::full_grid();

  hw::Workload w;
  w.name = "pred_tune";
  w.ops[hw::OpClass::kSpFlop] = 2e9;
  w.ops[hw::OpClass::kDramAccess] = 3e8;
  w.compute_utilization = 0.95;
  w.memory_utilization = 0.9;

  const std::size_t pick =
      predict_best_setting(f.energy, f.time, w.ops, grid);

  double best_e = 1e300;
  for (const auto& s : grid) {
    const double t = f.soc.execution_time(w, s);
    best_e = std::min(best_e, f.soc.true_energy_j(w, s, t));
  }
  const double t_pick = f.soc.execution_time(w, grid[pick]);
  const double e_pick = f.soc.true_energy_j(w, grid[pick], t_pick);
  EXPECT_LT(e_pick, 1.10 * best_e)
      << "predictive pick " << grid[pick].label() << " loses too much";
}

TEST(TimeModel, TooFewSamplesThrows) {
  std::vector<FitSample> few(4);
  EXPECT_THROW(fit_time_model(few), util::ContractError);
}

}  // namespace
}  // namespace eroof::model
