// Closed-loop model refresh demo: a time-stepping dynamics run on a SoC
// whose die leakage ramps up mid-run. The engine executes its installed
// DVFS schedule in service, streams the (noisy) PowerMon measurements into
// the online drift detector, and -- when the detector fires -- refits the
// energy model from the stream and re-runs the schedule search against the
// refreshed coefficients (DESIGN.md §14).
//
//   fmm_refresh [n] [q] [p] [steps] [leak_end]
//
// Prints a per-step trace (leakage scale, measured energy, detector EWMA,
// whether a refit fired) and the final refresh statistics.
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
  const int steps = argc > 4 ? std::atoi(argv[4]) : 16;
  const double leak_end = argc > 5 ? std::atof(argv[5]) : 3.0;

  const fmm::Box domain{{0.5, 0.5, 0.5}, 0.5};
  const auto kernel = std::make_shared<const fmm::LaplaceKernel>();

  dynamics::DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = q, .domain = domain};
  cfg.session.fmm = {.p = p};
  cfg.tuning.context = model::TuneContext::tegra_default();
  cfg.tuning.refresh.enabled = true;
  // Hold the start temperature for a quarter of the run, then ramp the
  // leakage linearly to `leak_end` over the next half.
  cfg.tuning.refresh.ramp = {
      .start_scale = 1.0,
      .end_scale = leak_end,
      .ramp_start = static_cast<std::uint64_t>(steps / 4),
      .ramp_steps = static_cast<std::uint64_t>(steps / 2 > 0 ? steps / 2 : 1),
  };
  cfg.tuning.refresh.online.min_observations = 10;
  cfg.tuning.refresh.online.cooldown = 10;
  cfg.tuning.refresh.measure_seed = 99;

  std::printf("fmm_refresh: n=%zu q=%u p=%d steps=%d leak 1.0 -> %.1f\n", n,
              q, p, steps, leak_end);
  dynamics::DynamicsEngine engine(
      kernel, dynamics::ParticleSystem::random(n, domain, 7), cfg);
  dynamics::LangevinMover mover(8, {.gamma = 0.05, .sigma = 0.008});

  double prev_measured = 0;
  for (int s = 0; s < steps; ++s) {
    const auto prev_refreshes = engine.stats().refreshes;
    const auto prev_tunes = engine.stats().tunes;
    engine.step(mover);
    const auto& st = engine.stats();
    std::printf("  step %2d  leak %.3f  measured %7.3f J  drift %+8.5f%s%s\n",
                s, st.last_leak_scale, st.measured_energy_j - prev_measured,
                st.drift,
                st.refreshes > prev_refreshes ? "  [refit]" : "",
                st.tunes > prev_tunes && s > 0 ? "  [re-tuned schedule]" : "");
    prev_measured = st.measured_energy_j;
  }

  const auto& st = engine.stats();
  std::printf("\n  refits: %llu  schedule searches: %llu / %d steps\n",
              static_cast<unsigned long long>(st.refreshes),
              static_cast<unsigned long long>(st.tunes), steps);
  if (const auto* r = engine.refresh()) {
    std::printf("  observations: %llu (rejected %llu)  final drift %+.5f\n",
                static_cast<unsigned long long>(r->stats().observations),
                static_cast<unsigned long long>(r->stats().rejected),
                r->drift());
  }
  std::printf("  in-service energy: %.3f J over %.3f s (meter-integrated)\n",
              st.measured_energy_j, st.measured_time_s);
  if (const auto* sched = engine.schedule()) {
    std::printf("  installed schedule: pred %.3f J, %d domain switches\n",
                sched->pred_energy_j, sched->switches);
  }
  return 0;
}
