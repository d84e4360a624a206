// Engine-level Tuning::refresh integration: the opt-in closed loop measures
// each tuned step in service, streams the samples through the drift
// detector, refits on a thermal ramp, and rebaselines the chain DP -- all
// bitwise-reproducibly across OpenMP thread counts (the measurement noise
// is identity-keyed by (measure_seed, step), never by execution history).
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::dynamics {
namespace {

constexpr fmm::Box kDomain{{0.5, 0.5, 0.5}, 0.5};

std::shared_ptr<const fmm::Kernel> laplace() {
  static const auto k = std::make_shared<const fmm::LaplaceKernel>();
  return k;
}

DynamicsEngine::Config refresh_config() {
  DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32, .domain = kDomain};
  cfg.session.fmm = {.p = 3};
  cfg.tuning.context = model::TuneContext::tegra_default();
  cfg.tuning.refresh.enabled = true;
  // An aggressive ramp: leakage climbs 1.0 -> 2.0 over steps 2..8, far past
  // the 5% drift bound, so the detector must fire within the run.
  cfg.tuning.refresh.ramp = {1.0, 2.0, 2, 6, 0.0, 11};
  cfg.tuning.refresh.online.min_observations = 10;
  cfg.tuning.refresh.online.cooldown = 10;
  cfg.tuning.refresh.measure_seed = 77;
  return cfg;
}

TEST(RefreshLoop, ThermalDriftTriggersRefitAndRebaseline) {
  DynamicsEngine engine(laplace(), ParticleSystem::random(700, kDomain, 51),
                        refresh_config());
  LeapfrogMover mover({.dt = 1e-6});  // negligible structural drift
  for (int s = 0; s < 12; ++s) engine.step(mover);

  ASSERT_NE(engine.refresh(), nullptr);
  const auto& st = engine.stats();
  EXPECT_EQ(st.steps, 12u);
  // The model-side detector fired at least once on the 2x leakage ramp...
  EXPECT_GE(st.refreshes, 1u);
  EXPECT_EQ(engine.refresh()->stats().refreshes, st.refreshes);
  // ...and every refresh re-ran the DP on top of the step-0 search.
  EXPECT_GE(st.tunes, 1u + st.refreshes);
  // In-service measurement accumulated real energy/time at the final scale.
  EXPECT_GT(st.measured_energy_j, 0.0);
  EXPECT_GT(st.measured_time_s, 0.0);
  EXPECT_DOUBLE_EQ(st.last_leak_scale, 2.0);
  // Each step observed 6 FMM phases + 1 idle probe.
  EXPECT_EQ(engine.refresh()->stats().observations, 12u * 7u);
  // The refit moved the model toward the hot regime: its constant power at
  // the seed grid's top setting now exceeds the frozen seed model's.
  const auto ctx_ptr = refresh_config().tuning.context;
  const auto& ctx = *ctx_ptr;
  EXPECT_GT(engine.refresh()->model().constant_power_w(ctx.grid.back()),
            ctx.model.constant_power_w(ctx.grid.back()));
}

TEST(RefreshLoop, BitwiseDeterministicAcrossThreadCounts) {
  struct Outcome {
    std::vector<double> energies;
    double measured_j = 0;
    double drift = 0;
    std::uint64_t refreshes = 0;
  };
  auto run = [](int threads) {
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    DynamicsEngine engine(laplace(), ParticleSystem::random(600, kDomain, 52),
                          refresh_config());
    LeapfrogMover mover({.dt = 1e-6});
    Outcome out;
    for (int s = 0; s < 10; ++s) {
      engine.step(mover);
      out.energies.push_back(engine.potential_energy());
    }
    out.measured_j = engine.stats().measured_energy_j;
    out.drift = engine.stats().drift;
    out.refreshes = engine.stats().refreshes;
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    return out;
  };
  const Outcome base = run(1);
  for (const int threads : {2, 4}) {
    const Outcome other = run(threads);
    ASSERT_EQ(other.energies.size(), base.energies.size());
    for (std::size_t i = 0; i < base.energies.size(); ++i)
      EXPECT_EQ(std::memcmp(&other.energies[i], &base.energies[i],
                            sizeof(double)),
                0)
          << "potential energy diverged at step " << i << ", " << threads
          << " threads";
    EXPECT_EQ(
        std::memcmp(&other.measured_j, &base.measured_j, sizeof(double)), 0)
        << "measured energy diverged at " << threads << " threads";
    EXPECT_EQ(std::memcmp(&other.drift, &base.drift, sizeof(double)), 0)
        << "drift EWMA diverged at " << threads << " threads";
    EXPECT_EQ(other.refreshes, base.refreshes);
  }
}

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// A 16-step refresh_config() run recorded before the engine's measurement
// loop was folded into model::ClosedLoopScheduler: per-step installed picks
// and predicted energies, the final stats, and the refitted coefficients.
// The refactor must reproduce every value bit for bit.
TEST(RefreshLoop, SixteenStepRunMatchesTheRecordedLoopBitwise) {
  constexpr std::size_t kCold = 90;  // grid index of the pre-refit picks
  constexpr std::size_t kHot = 104;  // the top of the grid, after a refit
  struct Step {
    std::size_t pick;
    std::uint64_t pred_energy_bits;
  };
  constexpr Step kSteps[16] = {
      {kCold, 0x3f7bae4aa3ca3debull}, {kCold, 0x3f7bae4aa3ca3debull},
      {kCold, 0x3f7bae4aa3ca3debull}, {kHot, 0x3f7c98d6c4260090ull},
      {kHot, 0x3f7c98d6c4260090ull},  {kHot, 0x3f7cd528a2a68e84ull},
      {kHot, 0x3f7cd528a2a68e84ull},  {kHot, 0x3f7d5de72602a93bull},
      {kHot, 0x3f7d5de72602a93bull},  {kHot, 0x3f7e46c0a3f73c41ull},
      {kHot, 0x3f7e46c0a3f73c41ull},  {kHot, 0x3f803f52e96bff0bull},
      {kHot, 0x3f803f52e96bff0bull},  {kHot, 0x3f80e2b27553d8c5ull},
      {kHot, 0x3f80e2b27553d8c5ull},  {kHot, 0x3f815ddf14bd18fcull}};

  DynamicsEngine engine(laplace(), ParticleSystem::random(700, kDomain, 51),
                        refresh_config());
  LeapfrogMover mover({.dt = 1e-6});
  for (int s = 0; s < 16; ++s) {
    engine.step(mover);
    const model::PhaseSchedule* sched = engine.schedule();
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->pick, std::vector<std::size_t>(6, kSteps[s].pick))
        << "step " << s;
    EXPECT_EQ(bits_of(sched->pred_energy_j), kSteps[s].pred_energy_bits)
        << "step " << s;
  }
  const auto& st = engine.stats();
  EXPECT_EQ(st.tunes, 8u);
  EXPECT_EQ(st.refreshes, 7u);
  EXPECT_EQ(bits_of(st.measured_energy_j), 0x3fc4eb2c59429d54ull);
  EXPECT_EQ(bits_of(st.drift), 0x3fcd13b622085beaull);
  ASSERT_NE(engine.refresh(), nullptr);
  EXPECT_EQ(engine.refresh()->stats().observations, 112u);
  const model::EnergyModel& m = engine.refresh()->model();
  for (const double c : m.c0) EXPECT_EQ(bits_of(c), 0u);
  EXPECT_EQ(bits_of(m.c1_proc), 0u);
  EXPECT_EQ(bits_of(m.c1_mem), 0x4024d2f09935c8d3ull);
  EXPECT_EQ(bits_of(m.p_misc), 0u);
}

/// Summed self time (own duration minus direct children's) of the spans
/// named `name`, in microseconds.
std::int64_t self_us(const std::vector<trace::SpanEvent>& spans,
                     const std::string& name) {
  std::int64_t total = 0;
  for (const auto& parent : spans) {
    if (parent.name != name) continue;
    total += parent.dur_us;
    for (const auto& child : spans)
      if (child.tid == parent.tid && child.depth == parent.depth + 1 &&
          child.start_us >= parent.start_us &&
          child.start_us < parent.start_us + parent.dur_us)
        total -= child.dur_us;
  }
  return total;
}

/// True when `inner` lies inside `outer` on the same thread.
bool nested_in(const trace::SpanEvent& inner, const trace::SpanEvent& outer) {
  return inner.tid == outer.tid && inner.depth > outer.depth &&
         inner.start_us >= outer.start_us &&
         inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us;
}

// The end-to-end benchmark reads these span and counter names from a traced
// dynamics_refresh run; a renamed one would silently read 0 there.
TEST(RefreshLoop, TracedRunEmitsTheNamesTheBenchmarkReads) {
  trace::TraceSession session;
  DynamicsEngine::Stats st;
  {
    trace::SessionGuard guard(session);
    DynamicsEngine engine(laplace(),
                          ParticleSystem::random(700, kDomain, 51),
                          refresh_config());
    LeapfrogMover mover({.dt = 1e-6});
    for (int s = 0; s < 16; ++s) engine.step(mover);
    st = engine.stats();
  }
  ASSERT_GE(st.refreshes, 2u);
  const std::vector<trace::SpanEvent> spans = session.spans();
  const auto named = [&](const char* cat, const char* name) {
    std::vector<trace::SpanEvent> out;
    for (const auto& sp : spans)
      if (sp.category == cat && sp.name == name) out.push_back(sp);
    return out;
  };
  const auto retunes = named("dynamics", "dynamics.retune");
  const auto refreshes = named("dynamics", "dynamics.refresh");
  EXPECT_EQ(retunes.size(), st.tunes);
  EXPECT_EQ(refreshes.size(), st.steps);  // one per refresh-loop step
  EXPECT_FALSE(named("fmm.profile", "profile_gpu_execution").empty());
  const auto predicts = named("model.schedule", "predict_phase_grid");
  EXPECT_FALSE(named("model.schedule", "schedule_phases").empty());

  // dynamics.refresh wraps the refit: the loop's own post-refit install
  // (one prediction grid per refit, outside any retune) runs inside it.
  std::uint64_t refit_installs = 0;
  for (const auto& p : predicts) {
    const auto inside = [&](const std::vector<trace::SpanEvent>& outer) {
      for (const auto& o : outer)
        if (nested_in(p, o)) return true;
      return false;
    };
    if (inside(refreshes) && !inside(retunes)) ++refit_installs;
  }
  EXPECT_EQ(refit_installs, st.refreshes);
  EXPECT_GT(self_us(spans, "dynamics.refresh"), 0);

  const auto totals = session.counter_totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  };
  EXPECT_EQ(total("core.refresh.refits"), static_cast<double>(st.refreshes));
  EXPECT_EQ(total("dynamics.tunes"), static_cast<double>(st.tunes));
  EXPECT_EQ(total("dynamics.refreshes"), static_cast<double>(st.refreshes));
  EXPECT_GT(total("powermon.samples"), 0.0);
}

TEST(RefreshLoop, RefreshWithoutContextIsRejected) {
  DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32, .domain = kDomain};
  cfg.session.fmm = {.p = 3};
  cfg.tuning.refresh.enabled = true;  // but no TuneContext
  EXPECT_THROW(
      DynamicsEngine(laplace(), ParticleSystem::random(64, kDomain, 53), cfg),
      util::ContractError);
}

TEST(RefreshLoop, RefreshOffLeavesMeasurementStatsZero) {
  DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32, .domain = kDomain};
  cfg.session.fmm = {.p = 3};
  cfg.tuning.context = model::TuneContext::tegra_default();
  DynamicsEngine engine(laplace(), ParticleSystem::random(400, kDomain, 54),
                        cfg);
  LeapfrogMover mover({.dt = 1e-6});
  for (int s = 0; s < 3; ++s) engine.step(mover);
  EXPECT_EQ(engine.refresh(), nullptr);
  EXPECT_EQ(engine.stats().refreshes, 0u);
  EXPECT_EQ(engine.stats().measured_energy_j, 0.0);
  EXPECT_EQ(engine.stats().measured_time_s, 0.0);
  EXPECT_EQ(engine.stats().drift, 0.0);
  EXPECT_DOUBLE_EQ(engine.stats().last_leak_scale, 1.0);
}

}  // namespace
}  // namespace eroof::dynamics
