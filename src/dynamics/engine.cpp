#include "dynamics/engine.hpp"

#include <utility>

#include "fmm/gpu_profile.hpp"
#include "trace/trace.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::dynamics {

DynamicsEngine::DynamicsEngine(std::shared_ptr<const fmm::Kernel> kernel,
                               ParticleSystem particles, Config cfg)
    : cfg_(std::move(cfg)),
      ps_(std::move(particles)),
      session_(std::move(kernel), ps_.pos, cfg_.session) {
  EROOF_REQUIRE_MSG(ps_.charge.size() == ps_.pos.size(),
                    "charges/positions size mismatch");
  EROOF_REQUIRE_MSG(ps_.domain.half == cfg_.session.tree.domain.half &&
                        ps_.domain.center.x == cfg_.session.tree.domain.center.x &&
                        ps_.domain.center.y == cfg_.session.tree.domain.center.y &&
                        ps_.domain.center.z == cfg_.session.tree.domain.center.z,
                    "particle domain must equal the session's tree domain");
  EROOF_REQUIRE_MSG(!cfg_.tuning.refresh.enabled || cfg_.tuning.context,
                    "Tuning::refresh requires a TuneContext");
  phi_.resize(ps_.size());
  if (cfg_.tuning.context) reuse_.emplace(kRetuneBound);
}

void DynamicsEngine::step(Mover& mover) {
  ++stats_.steps;
  // eroof: hot-begin (steady-state step: advance, refit/move, evaluate,
  // energy reduction -- zero heap allocations after step 0)
  mover.advance(ps_);
  session_.move_to(ps_.pos);
  session_.evaluate_into(ps_.charge, phi_);
  double e = 0.0;
  for (std::size_t i = 0; i < phi_.size(); ++i) e += ps_.charge[i] * phi_[i];
  energy_ = 0.5 * e;
  // eroof: hot-end
  if (reuse_) {
    gather_phase_work();
    // eroof: hot-begin (amortized tuning: allocation-free drift check; the
    // search below it runs only on step 0 and on drift past the bound)
    const bool stale = reuse_->needs_retune(work_);
    // eroof: hot-end
    if (stale) retune();
    // The closed loop (in-service measurement + model drift) allocates
    // per-step buffers by design, so it stays outside the hot regions and
    // is strictly opt-in.
    const Tuning::Refresh& rcfg = cfg_.tuning.refresh;
    if (rcfg.enabled) {
      trace::ScopedSpan span("dynamics.refresh", "dynamics");
      const std::uint64_t i = stats_.steps - 1;
      // Identity-keyed noise: the step's measurements depend only on
      // (measure_seed, step), never on how many retunes or refreshes
      // preceded them -- the whole loop replays bitwise across thread
      // counts.
      const auto rep = loop_->step(
          rcfg.ramp.scale_at(i),
          util::RngStream(rcfg.measure_seed).fork("refresh").fork(i));
      stats_.measured_energy_j += rep.measured_energy_j;
      stats_.measured_time_s += rep.measured_time_s;
      stats_.last_leak_scale = rep.leak_scale;
      stats_.drift = rep.drift;
      if (rep.refreshed) {
        ++stats_.refreshes;
        trace::counter_add("dynamics.refreshes", 1.0);
        // Re-profile and re-search with the refreshed model, without the
        // loop's dead-band, and rebaseline the reuse monitor.
        retune();
      }
    }
  }
}

void DynamicsEngine::gather_phase_work() {
  // Any per-phase scalar proportional to phase time at a fixed setting
  // works for the drift monitor; this one folds every FmmStats tally with
  // its natural size factor (solves are n_surf^2 matvecs, FFTs touch the
  // padded grid).
  const auto& s = session_.evaluator().stats();
  const auto& ops = session_.evaluator().operators();
  const auto ns = static_cast<double>(ops.n_surf());
  const auto g = static_cast<double>(ops.grid_size());
  const auto scalar = [ns, g](const fmm::FmmStats::Phase& p) {
    return p.kernel_evals + p.pair_count + g * p.ffts + p.hadamard_cmuls +
           ns * ns * p.solve_matvecs;
  };
  work_ = {scalar(s.up), scalar(s.u), scalar(s.v),
           scalar(s.w),  scalar(s.x), scalar(s.down)};
}

void DynamicsEngine::retune() {
  ++stats_.tunes;
  trace::counter_add("dynamics.tunes", 1.0);
  trace::ScopedSpan span("dynamics.retune", "dynamics");
  auto phases = fmm::profile_gpu_execution(session_.evaluator()).workloads();
  if (loop_)
    loop_->retarget(std::move(phases));
  else
    loop_.emplace(cfg_.tuning.context, std::move(phases),
                  cfg_.tuning.refresh.online);
  reuse_->install(loop_->schedule(), work_);
}

}  // namespace eroof::dynamics
