// Per-phase DVFS scheduler (core/schedule): prediction-grid fidelity, exact
// DP vs exhaustive search, transition-cost monotonicity (infinite switch
// cost must collapse onto the uniform best), bitwise determinism across
// OpenMP thread counts, and the ground-truth win over uniform/race-to-halt
// on a real KIFMM profile.
#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/fit.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/kernel.hpp"
#include "fmm/pointgen.hpp"
#include "ubench/campaign.hpp"
#include "util/require.hpp"

namespace eroof::model {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
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

const EnergyModel& fitted_model() {
  static const EnergyModel m = [] {
    const auto soc = hw::Soc::tegra_k1();
    const hw::PowerMon pm;
    const auto campaign = ub::paper_campaign(soc, pm, util::RngStream(42));
    std::vector<FitSample> train;
    for (const auto& s : campaign)
      if (s.role == hw::SettingRole::kTrain)
        train.push_back(to_fit_sample(s.meas));
    return fit_energy_model(train).model;
  }();
  return m;
}

// A deliberately heterogeneous phase chain: one compute-bound, one
// memory-bound, one mixed phase, so the per-phase optimum genuinely differs
// from any uniform setting.
std::vector<hw::Workload> synthetic_phases() {
  hw::Workload compute;
  compute.name = "sched_compute";
  compute.ops[hw::OpClass::kSpFlop] = 8e9;
  compute.ops[hw::OpClass::kDramAccess] = 1e6;
  compute.compute_utilization = 0.9;
  compute.memory_utilization = 0.2;

  hw::Workload stream;
  stream.name = "sched_stream";
  stream.ops[hw::OpClass::kDramAccess] = 256e6;
  stream.ops[hw::OpClass::kIntOp] = 4e6;
  stream.compute_utilization = 0.2;
  stream.memory_utilization = 0.9;

  hw::Workload mixed;
  mixed.name = "sched_mixed";
  mixed.ops[hw::OpClass::kSpFlop] = 2e9;
  mixed.ops[hw::OpClass::kDramAccess] = 64e6;
  mixed.compute_utilization = 0.7;
  mixed.memory_utilization = 0.7;
  return {compute, stream, mixed};
}

std::vector<hw::Workload> kifmm_phases(std::size_t n, std::uint32_t q) {
  static const fmm::LaplaceKernel kernel;
  util::Rng rng(1000 + n + q);
  const auto pts = fmm::uniform_cube(n, rng);
  fmm::FmmEvaluator ev(
      kernel, pts,
      {.max_points_per_box = q,
       .uniform_depth = fmm::Octree::uniform_depth_for(n, q)},
      fmm::FmmConfig{.p = 4});
  return fmm::profile_gpu_execution(ev).workloads();
}

// The scheduler's chain objective, recomputed from first principles via the
// public transition-model API -- the reference for the exhaustive search.
double assignment_cost(const PhaseGridPrediction& pred,
                       const hw::DvfsTransitionModel& tm,
                       const std::vector<std::size_t>& pick,
                       double time_weight) {
  double cost = 0;
  for (std::size_t p = 0; p < pick.size(); ++p) {
    cost += pred.energy_at(p, pick[p]) + time_weight * pred.time_at(p, pick[p]);
    if (p == 0) continue;
    const auto& from = pred.grid[pick[p - 1]];
    const auto& to = pred.grid[pick[p]];
    cost += tm.switch_energy_j(from, to) +
            tm.stall_s(from, to) *
                (pred.const_power_w[pick[p]] + time_weight);
  }
  return cost;
}

TEST(Schedule, PredictionMatchesSocTimingAndModelEnergy) {
  const auto soc = hw::Soc::tegra_k1();
  const auto phases = synthetic_phases();
  const auto grid = hw::full_grid();
  const auto& m = fitted_model();
  const auto pred = predict_phase_grid(m, soc, phases, grid);

  ASSERT_EQ(pred.n_phases(), phases.size());
  ASSERT_EQ(pred.n_settings(), grid.size());
  ASSERT_EQ(pred.time_s.size(), phases.size() * grid.size());
  for (std::size_t p = 0; p < phases.size(); ++p)
    for (std::size_t s = 0; s < grid.size(); ++s) {
      const double t = soc.execution_time(phases[p], grid[s]);
      EXPECT_TRUE(bit_equal(pred.time_at(p, s), t)) << p << "," << s;
      EXPECT_TRUE(bit_equal(pred.energy_at(p, s),
                            m.predict_energy_j(phases[p].ops, grid[s], t)))
          << p << "," << s;
    }
  for (std::size_t s = 0; s < grid.size(); ++s)
    EXPECT_TRUE(bit_equal(pred.const_power_w[s], m.constant_power_w(grid[s])));
}

TEST(Schedule, ZeroCostScheduleTakesEachPhaseArgmin) {
  const auto soc = hw::Soc::tegra_k1();
  const auto pred =
      predict_phase_grid(fitted_model(), soc, synthetic_phases(),
                         hw::full_grid());
  const auto sched = schedule_phases(pred, hw::DvfsTransitionModel{});
  ASSERT_EQ(sched.pick.size(), pred.n_phases());
  for (std::size_t p = 0; p < pred.n_phases(); ++p)
    for (std::size_t s = 0; s < pred.n_settings(); ++s)
      EXPECT_LE(pred.energy_at(p, sched.pick[p]), pred.energy_at(p, s));
}

TEST(Schedule, InfiniteSwitchCostCollapsesToUniformBest) {
  const auto soc = hw::Soc::tegra_k1();
  const auto pred =
      predict_phase_grid(fitted_model(), soc, synthetic_phases(),
                         hw::full_grid());
  const auto uniform = best_uniform_schedule(pred);
  // A switch energy far above any total workload energy makes every
  // transition a loss; the DP must return the uniform best, exactly.
  const hw::DvfsTransitionModel prohibitive{100e-6, 1e6};
  const auto sched = schedule_phases(pred, prohibitive);
  EXPECT_EQ(sched.pick, uniform.pick);
  EXPECT_EQ(sched.switches, 0);
  EXPECT_TRUE(bit_equal(sched.pred_energy_j, uniform.pred_energy_j));
  EXPECT_TRUE(bit_equal(sched.pred_time_s, uniform.pred_time_s));
}

TEST(Schedule, EnergyDegradesMonotonicallyAsSwitchCostGrows) {
  const auto soc = hw::Soc::tegra_k1();
  const auto pred =
      predict_phase_grid(fitted_model(), soc, synthetic_phases(),
                         hw::full_grid());
  const auto uniform = best_uniform_schedule(pred);
  double prev = -std::numeric_limits<double>::infinity();
  int prev_switches = std::numeric_limits<int>::max();
  for (const double ej : {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e3}) {
    const auto s = schedule_phases(pred, hw::DvfsTransitionModel{100e-6, ej});
    // The optimum of a pointwise-increasing objective family is
    // non-decreasing; switching can only get less attractive.
    EXPECT_GE(s.pred_energy_j, prev - 1e-15);
    EXPECT_LE(s.pred_energy_j, uniform.pred_energy_j + 1e-15);
    EXPECT_LE(s.switches, prev_switches);
    prev = s.pred_energy_j;
    prev_switches = s.switches;
  }
  const auto last = schedule_phases(pred, hw::DvfsTransitionModel{100e-6, 1e3});
  EXPECT_EQ(last.pick, uniform.pick);
}

TEST(Schedule, DpMatchesExhaustiveSearchOnReducedGrid) {
  const auto soc = hw::Soc::tegra_k1();
  // 3 phases x 6 settings = 216 assignments: small enough to enumerate.
  const std::vector<hw::DvfsSetting> reduced = {
      hw::setting(72, 68),   hw::setting(396, 204), hw::setting(396, 924),
      hw::setting(612, 528), hw::setting(852, 68),  hw::setting(852, 924)};
  const auto pred = predict_phase_grid(fitted_model(), soc,
                                       synthetic_phases(), reduced);
  for (const double lambda : {0.0, 0.5, 4.0}) {
    const hw::DvfsTransitionModel tm{150e-6, 2e-4};
    const auto sched = schedule_phases(pred, tm, lambda);
    const double dp_cost = assignment_cost(pred, tm, sched.pick, lambda);

    double best = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> pick(pred.n_phases());
    const std::size_t ns = pred.n_settings();
    for (pick[0] = 0; pick[0] < ns; ++pick[0])
      for (pick[1] = 0; pick[1] < ns; ++pick[1])
        for (pick[2] = 0; pick[2] < ns; ++pick[2])
          best = std::min(best, assignment_cost(pred, tm, pick, lambda));

    EXPECT_NEAR(dp_cost, best, 1e-12 * std::abs(best)) << "lambda " << lambda;
    // The schedule's reported totals must price its own picks consistently.
    EXPECT_NEAR(sched.pred_energy_j + lambda * sched.pred_time_s, dp_cost,
                1e-12 * std::abs(dp_cost));
  }
}

TEST(Schedule, PriceScheduleRepricesAnyAssignment) {
  const auto soc = hw::Soc::tegra_k1();
  const std::vector<hw::DvfsSetting> reduced = {
      hw::setting(72, 68), hw::setting(396, 924), hw::setting(852, 924)};
  const auto pred = predict_phase_grid(fitted_model(), soc,
                                       synthetic_phases(), reduced);
  const hw::DvfsTransitionModel tm{150e-6, 2e-4};
  // The DP's own pick re-prices to exactly the schedule it reported.
  const auto sched = schedule_phases(pred, tm);
  const auto same = price_schedule(pred, tm, sched.pick);
  EXPECT_EQ(same.pick, sched.pick);
  EXPECT_TRUE(bit_equal(same.pred_energy_j, sched.pred_energy_j));
  EXPECT_TRUE(bit_equal(same.pred_time_s, sched.pred_time_s));
  EXPECT_EQ(same.switches, sched.switches);
  // Any other assignment is priced as the chain objective at time_weight 0,
  // with the stalls added to its time and one switch per changed domain.
  const std::vector<std::size_t> pick = {0, 2, 1};
  const auto priced = price_schedule(pred, tm, pick);
  const double cost = assignment_cost(pred, tm, pick, 0.0);
  EXPECT_NEAR(priced.pred_energy_j, cost, 1e-12 * cost);
  double time = 0;
  int switches = 0;
  for (std::size_t p = 0; p < pick.size(); ++p) {
    time += pred.time_at(p, pick[p]);
    if (p == 0) continue;
    time += tm.stall_s(reduced[pick[p - 1]], reduced[pick[p]]);
    switches += tm.changed_domains(reduced[pick[p - 1]], reduced[pick[p]]);
  }
  EXPECT_NEAR(priced.pred_time_s, time, 1e-12 * time);
  EXPECT_EQ(priced.switches, switches);
  EXPECT_GT(priced.switches, 0);
  // Wrong length or an out-of-grid index is a contract violation.
  EXPECT_THROW(price_schedule(pred, tm, std::vector<std::size_t>{0, 1}),
               util::ContractError);
  EXPECT_THROW(price_schedule(pred, tm, std::vector<std::size_t>{0, 1, 3}),
               util::ContractError);
}

TEST(Schedule, BitwiseIdenticalAcrossThreadCounts) {
  const auto soc = hw::Soc::tegra_k1();
  const auto phases = kifmm_phases(4096, 64);
  const auto grid = hw::full_grid();
  const auto& m = fitted_model();
  const hw::DvfsTransitionModel tm{100e-6, 50e-6};
  const std::vector<double> weights = {0, 0.5, 2.0, 8.0};

  struct Out {
    PhaseGridPrediction pred;
    PhaseSchedule sched;
    PhaseSchedule uniform;
    std::vector<ParetoPoint> frontier;
  };
  const auto run = [&] {
    Out o{predict_phase_grid(m, soc, phases, grid), {}, {}, {}};
    o.sched = schedule_phases(o.pred, tm);
    o.uniform = best_uniform_schedule(o.pred);
    o.frontier = pareto_frontier(o.pred, tm, weights);
    return o;
  };
  const Out serial = with_threads(1, run);
  const Out parallel = with_threads(4, run);

  ASSERT_EQ(serial.pred.time_s.size(), parallel.pred.time_s.size());
  for (std::size_t i = 0; i < serial.pred.time_s.size(); ++i) {
    EXPECT_TRUE(bit_equal(serial.pred.time_s[i], parallel.pred.time_s[i]));
    EXPECT_TRUE(bit_equal(serial.pred.energy_j[i], parallel.pred.energy_j[i]));
  }
  EXPECT_EQ(serial.sched.pick, parallel.sched.pick);
  EXPECT_TRUE(bit_equal(serial.sched.pred_energy_j,
                        parallel.sched.pred_energy_j));
  EXPECT_EQ(serial.uniform.pick, parallel.uniform.pick);
  ASSERT_EQ(serial.frontier.size(), parallel.frontier.size());
  for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
    EXPECT_EQ(serial.frontier[i].schedule.pick,
              parallel.frontier[i].schedule.pick);
    EXPECT_TRUE(bit_equal(serial.frontier[i].schedule.pred_time_s,
                          parallel.frontier[i].schedule.pred_time_s));
    EXPECT_TRUE(bit_equal(serial.frontier[i].schedule.pred_energy_j,
                          parallel.frontier[i].schedule.pred_energy_j));
  }
}

TEST(Schedule, RunSequenceAccountsPhasesPlusTransitions) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto phases = synthetic_phases();
  const std::vector<hw::DvfsSetting> settings = {
      hw::setting(852, 68), hw::setting(72, 924), hw::setting(612, 528)};
  const hw::DvfsTransitionModel tm{200e-6, 3e-4};
  const util::RngStream stream(7);

  const auto seq = soc.run_sequence(phases, settings, tm, pm, stream);
  ASSERT_EQ(seq.phases.size(), phases.size());
  // Both hops change both domains.
  EXPECT_EQ(seq.switches, 4);
  EXPECT_NEAR(seq.transition_time_s, 2 * tm.latency_s, 1e-15);
  double phase_t = 0, phase_e = 0, stall_e = 0;
  for (const auto& m : seq.phases) {
    phase_t += m.time_s;
    phase_e += m.energy_j;
  }
  for (std::size_t i = 1; i < settings.size(); ++i)
    stall_e += tm.latency_s * soc.true_constant_power_w(settings[i]) +
               tm.energy_j * tm.changed_domains(settings[i - 1], settings[i]);
  EXPECT_NEAR(seq.transition_energy_j, stall_e, 1e-12);
  EXPECT_NEAR(seq.time_s, phase_t + seq.transition_time_s, 1e-15);
  EXPECT_NEAR(seq.energy_j, phase_e + seq.transition_energy_j, 1e-12);

  // Same stream, same result -- the validation path is replayable.
  const auto again = soc.run_sequence(phases, settings, tm, pm, stream);
  EXPECT_TRUE(bit_equal(seq.energy_j, again.energy_j));
  EXPECT_TRUE(bit_equal(seq.time_s, again.time_s));
}

TEST(Schedule, PerPhaseBeatsUniformAndRaceOnKifmmGroundTruth) {
  // The acceptance bar: on a real KIFMM profile with free transitions, the
  // per-phase schedule must dissipate measurably less *ground-truth* energy
  // than the best uniform setting, which in turn beats race-to-halt.
  const auto soc = hw::Soc::tegra_k1();
  const auto phases = kifmm_phases(8192, 64);
  const auto cmp = compare_strategies(fitted_model(), soc, phases,
                                      hw::full_grid(),
                                      hw::DvfsTransitionModel{});
  EXPECT_GT(cmp.per_phase.switches, 0);
  EXPECT_LT(cmp.per_phase_true.energy_j, 0.995 * cmp.uniform_true.energy_j);
  EXPECT_LT(cmp.uniform_true.energy_j, cmp.race_true.energy_j);
  // Per-phase trades time for energy; race-to-halt must remain fastest.
  EXPECT_LE(cmp.race_true.time_s, cmp.per_phase_true.time_s);
}

TEST(Schedule, ParetoFrontierIsSortedAndUndominated) {
  const auto soc = hw::Soc::tegra_k1();
  const auto pred =
      predict_phase_grid(fitted_model(), soc, synthetic_phases(),
                         hw::full_grid());
  const std::vector<double> weights = {0, 0.25, 1.0, 4.0, 16.0, 64.0};
  const auto frontier =
      pareto_frontier(pred, hw::DvfsTransitionModel{100e-6, 50e-6}, weights);
  ASSERT_FALSE(frontier.empty());
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].schedule.pred_time_s,
              frontier[i - 1].schedule.pred_time_s);
    EXPECT_LT(frontier[i].schedule.pred_energy_j,
              frontier[i - 1].schedule.pred_energy_j);
  }
}

// ---------------------------------------------------------------------------
// ScheduleReuse: the drift monitor gating amortized re-search
// ---------------------------------------------------------------------------

TEST(ScheduleReuse, ReusesUntilDriftExceedsBound) {
  ScheduleReuse reuse(0.10);
  EXPECT_FALSE(reuse.installed());
  // Nothing installed yet: the first check must demand a search.
  std::vector<double> w0 = {100.0, 50.0, 200.0, 10.0};
  EXPECT_TRUE(reuse.needs_retune(w0));

  reuse.install(PhaseSchedule{}, w0);
  ASSERT_TRUE(reuse.installed());
  EXPECT_FALSE(reuse.needs_retune(w0));  // zero drift

  // 9% on the largest phase: inside the bound.
  std::vector<double> small = {100.0, 50.0, 218.0, 10.0};
  EXPECT_NEAR(reuse.divergence(small), 0.09, 1e-12);
  EXPECT_FALSE(reuse.needs_retune(small));

  // 11% on one phase: past the bound, even though the others are exact.
  std::vector<double> big = {100.0, 50.0, 200.0, 11.1};
  EXPECT_TRUE(reuse.needs_retune(big));

  EXPECT_EQ(reuse.stats().installs, 1u);
  EXPECT_EQ(reuse.stats().reuses, 2u);
  // The pre-install check had no baseline to compare against (counted as
  // incompatible); only the 11% drift is a genuine retune.
  EXPECT_EQ(reuse.stats().retunes, 1u);
  EXPECT_EQ(reuse.stats().incompatible, 1u);
}

TEST(ScheduleReuse, NaNWorkForcesRetune) {
  // Regression: NaN propagated through divergence() and `NaN > bound` is
  // false, so a poisoned work vector silently reused the stale schedule.
  // Non-finite work must read as infinite divergence instead.
  ScheduleReuse reuse(0.10);
  std::vector<double> w0 = {100.0, 50.0};
  reuse.install(PhaseSchedule{}, w0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isinf(reuse.divergence(std::vector<double>{100.0, nan})));
  EXPECT_TRUE(reuse.needs_retune(std::vector<double>{100.0, nan}));
  // Inf work, and a NaN *installed* baseline, are equally poisoned.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(reuse.needs_retune(std::vector<double>{inf, 50.0}));
  reuse.install(PhaseSchedule{}, std::vector<double>{nan, 50.0});
  EXPECT_TRUE(reuse.needs_retune(std::vector<double>{100.0, 50.0}));
  // All three were comparable-size checks: retunes, not incompatibles.
  EXPECT_EQ(reuse.stats().retunes, 3u);
  EXPECT_EQ(reuse.stats().incompatible, 0u);
}

TEST(ScheduleReuse, IncompatibleBaselineCountedApartFromRetunes) {
  // "Incompatible" = the installed schedule cannot even be compared (no
  // install yet, or the phase structure changed) and must be re-installed;
  // "retune" = a comparable baseline drifted past the bound. The split
  // lets a controller distinguish forced re-installs from drift events.
  ScheduleReuse reuse(0.10);
  EXPECT_TRUE(reuse.needs_retune(std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(reuse.stats().incompatible, 1u);
  EXPECT_EQ(reuse.stats().retunes, 0u);

  reuse.install(PhaseSchedule{}, std::vector<double>{1.0, 2.0});
  // Phase count changed: incompatible again, not an ordinary retune.
  EXPECT_TRUE(reuse.needs_retune(std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(reuse.stats().incompatible, 2u);
  EXPECT_EQ(reuse.stats().retunes, 0u);

  // Same-size drift past the bound: an ordinary retune.
  EXPECT_TRUE(reuse.needs_retune(std::vector<double>{2.0, 2.0}));
  EXPECT_EQ(reuse.stats().incompatible, 2u);
  EXPECT_EQ(reuse.stats().retunes, 1u);
  EXPECT_EQ(reuse.stats().reuses, 0u);
}

TEST(ScheduleReuse, DivergenceHandlesDegenerateWork) {
  ScheduleReuse reuse(0.5);
  // A phase with zero installed work that stays zero is ignored; one that
  // becomes nonzero is infinite drift (the installed schedule never priced
  // it at all).
  reuse.install(PhaseSchedule{}, std::vector<double>{10.0, 0.0});
  EXPECT_EQ(reuse.divergence(std::vector<double>{10.0, 0.0}), 0.0);
  EXPECT_TRUE(std::isinf(reuse.divergence(std::vector<double>{10.0, 1.0})));
  // Size mismatch can never be "close enough".
  EXPECT_TRUE(std::isinf(reuse.divergence(std::vector<double>{10.0})));
}

TEST(ScheduleReuse, ReinstallRebaselines) {
  ScheduleReuse reuse(0.10);
  reuse.install(PhaseSchedule{}, std::vector<double>{100.0});
  EXPECT_TRUE(reuse.needs_retune(std::vector<double>{200.0}));
  reuse.install(PhaseSchedule{}, std::vector<double>{200.0});
  EXPECT_FALSE(reuse.needs_retune(std::vector<double>{201.0}));
  EXPECT_EQ(reuse.stats().installs, 2u);
}

TEST(Schedule, EmptyPhasesOrGridThrows) {
  const auto soc = hw::Soc::tegra_k1();
  const auto grid = hw::full_grid();
  const std::vector<hw::Workload> none;
  EXPECT_THROW(predict_phase_grid(fitted_model(), soc, none, grid),
               util::ContractError);
  const std::vector<hw::DvfsSetting> empty_grid;
  EXPECT_THROW(
      predict_phase_grid(fitted_model(), soc, synthetic_phases(), empty_grid),
      util::ContractError);
}

}  // namespace
}  // namespace eroof::model
