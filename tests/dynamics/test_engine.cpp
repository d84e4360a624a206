// DynamicsEngine: the step contract (energy from the session's exact
// potentials), trajectory reproducibility across thread counts, and the
// amortized-tuning loop -- one search up front, re-searches only when the
// structural drift monitor fires.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "util/require.hpp"

namespace eroof::dynamics {
namespace {

constexpr fmm::Box kDomain{{0.5, 0.5, 0.5}, 0.5};

std::shared_ptr<const fmm::Kernel> laplace() {
  static const auto k = std::make_shared<const fmm::LaplaceKernel>();
  return k;
}

DynamicsEngine::Config untuned_config() {
  DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32, .domain = kDomain};
  cfg.session.fmm = {.p = 3};
  return cfg;
}

TEST(DynamicsEngine, EnergyMatchesPotentialsAndStatsAdvance) {
  DynamicsEngine engine(laplace(), ParticleSystem::random(600, kDomain, 41),
                        untuned_config());
  LangevinMover mover(42);
  for (int s = 0; s < 4; ++s) engine.step(mover);

  EXPECT_EQ(engine.stats().steps, 4u);
  EXPECT_EQ(engine.stats().tunes, 0u);  // tuning off
  EXPECT_EQ(engine.schedule(), nullptr);
  EXPECT_EQ(engine.session().stats().moves, 4u);

  const auto phi = engine.potentials();
  const auto& ps = engine.particles();
  ASSERT_EQ(phi.size(), ps.size());
  double e = 0;
  for (std::size_t i = 0; i < phi.size(); ++i) e += ps.charge[i] * phi[i];
  EXPECT_DOUBLE_EQ(engine.potential_energy(), 0.5 * e);
}

TEST(DynamicsEngine, TrajectoryBitwiseIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    DynamicsEngine engine(laplace(), ParticleSystem::random(500, kDomain, 43),
                          untuned_config());
    LangevinMover mover(44);
    std::vector<double> energies;
    for (int s = 0; s < 6; ++s) {
      engine.step(mover);
      energies.push_back(engine.potential_energy());
    }
    return energies;
  };
  const auto serial = run(1);
  const auto four = run(4);
  ASSERT_EQ(serial.size(), four.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(std::memcmp(&serial[i], &four[i], sizeof(double)), 0)
        << "step " << i;
#ifdef _OPENMP
  omp_set_num_threads(4);
#endif
}

TEST(DynamicsEngine, AmortizedTuningSearchesOnceInTheSteadyState) {
  auto cfg = untuned_config();
  cfg.tuning.context = model::TuneContext::tegra_default();
  DynamicsEngine engine(laplace(), ParticleSystem::random(800, kDomain, 45),
                        cfg);
  // Tiny time step: negligible drift, every move refits, the structural
  // work never diverges -- so exactly the step-0 search runs.
  LeapfrogMover mover({.dt = 1e-6});
  for (int s = 0; s < 5; ++s) engine.step(mover);

  EXPECT_EQ(engine.stats().tunes, 1u);
  ASSERT_NE(engine.schedule(), nullptr);
  EXPECT_GT(engine.schedule()->pred_energy_j, 0.0);
  ASSERT_NE(engine.schedule_reuse(), nullptr);
  EXPECT_EQ(engine.schedule_reuse()->stats().reuses, 4u);
}

TEST(DynamicsEngine, RetunesWhenTheTreeStructureShifts) {
  auto cfg = untuned_config();
  cfg.tuning.context = model::TuneContext::tegra_default();
  DynamicsEngine engine(laplace(), ParticleSystem::random(800, kDomain, 46),
                        cfg);
  // A strong pull toward the center collapses the ensemble step by step:
  // the adaptive tree deepens around it (rebuilds + changed interaction
  // lists), which moves the per-phase structural work past the engine's
  // kRetuneBound.
  LangevinMover mover(47, {.dt = 0.1, .gamma = 5.0, .sigma = 0.01});
  for (int s = 0; s < 6; ++s) engine.step(mover);
  EXPECT_GT(engine.stats().tunes, 1u);
  EXPECT_LE(engine.stats().tunes, engine.stats().steps);
}

TEST(DynamicsEngine, ValidatesParticleConfigAgreement) {
  auto ps = ParticleSystem::random(64, kDomain, 48);
  ps.charge.pop_back();
  EXPECT_THROW(DynamicsEngine(laplace(), ps, untuned_config()),
               util::ContractError);

  auto shifted = ParticleSystem::random(64, kDomain, 48);
  shifted.domain = {{0.0, 0.0, 0.0}, 1.0};
  EXPECT_THROW(DynamicsEngine(laplace(), shifted, untuned_config()),
               util::ContractError);
}

}  // namespace
}  // namespace eroof::dynamics
