// Time-stepping dynamics demo: Langevin particles in the unit cube, the
// incremental FmmSession absorbing each step's drift, and the amortized
// DVFS tuner re-searching only when the drift monitor fires.
//
//   fmm_dynamics [n] [q] [p] [steps]
//
// Prints a per-step trace (refit or rebuild, potential energy, whether the
// schedule was re-tuned) and a summary comparing the warm per-step cost
// against what a from-scratch evaluator would have paid.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"

using namespace eroof;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8192;
  const std::uint32_t q =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 64;
  const int p = argc > 3 ? std::atoi(argv[3]) : 4;
  const int steps = argc > 4 ? std::atoi(argv[4]) : 12;

  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };

  const fmm::Box domain{{0.5, 0.5, 0.5}, 0.5};
  const auto kernel = std::make_shared<const fmm::LaplaceKernel>();

  dynamics::DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = q, .domain = domain};
  cfg.session.fmm = {.p = p};
  cfg.tuning.context = model::TuneContext::tegra_default();

  std::printf("fmm_dynamics: n=%zu q=%u p=%d steps=%d (Laplace, tuned)\n", n,
              q, p, steps);
  dynamics::DynamicsEngine engine(
      kernel, dynamics::ParticleSystem::random(n, domain, 7), cfg);
  dynamics::LangevinMover mover(8, {.gamma = 0.05, .sigma = 0.008});

  double step_time = 0;
  for (int s = 0; s < steps; ++s) {
    const auto prev = engine.session().stats();
    const auto prev_tunes = engine.stats().tunes;
    const auto t0 = Clock::now();
    engine.step(mover);
    const double dt = secs(Clock::now() - t0);
    step_time += dt;
    const auto& st = engine.session().stats();
    std::printf("  step %2d  %-6s  U = %+.6e  %7.1f ms%s\n", s,
                st.refits > prev.refits ? "refit" : "rebuild",
                engine.potential_energy(), dt * 1e3,
                engine.stats().tunes > prev_tunes ? "  [re-tuned schedule]"
                                                  : "");
  }

  const auto& st = engine.session().stats();
  std::printf("\n  moves: %llu  refits: %llu  rebuilds: %llu  operator "
              "builds: %llu\n",
              static_cast<unsigned long long>(st.moves),
              static_cast<unsigned long long>(st.refits),
              static_cast<unsigned long long>(st.rebuilds),
              static_cast<unsigned long long>(st.plan_builds));
  std::printf("  schedule searches: %llu / %d steps\n",
              static_cast<unsigned long long>(engine.stats().tunes), steps);
  if (const auto* sched = engine.schedule()) {
    std::printf("  installed schedule: pred %.3f J, %d domain switches\n",
                sched->pred_energy_j, sched->switches);
  }
  std::printf("  mean step: %.1f ms\n", step_time / steps * 1e3);
  return 0;
}
