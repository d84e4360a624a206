// The time-stepping dynamics engine (DESIGN.md §13): mover + incremental
// FMM session + amortized DVFS tuning.
//
// Per step: advance the particles, move the session to the new positions
// (in-place octree refit in the steady state, full rebuild only when the
// structure actually changed), evaluate the potentials into a reused
// buffer, and reduce the ensemble's potential energy. After step 0 the
// whole loop is zero-allocation (enforced by the operator-new hook test).
//
// Tuning is *amortized* across steps instead of re-run per evaluation: the
// expensive search -- GPU-execution profile replay, the phase-by-setting
// prediction grid, the chain DP -- runs on step 0 and whenever the
// model::ScheduleReuse drift monitor reports that the per-phase structural
// work has diverged past its bound from what the installed schedule was
// tuned for. In between, every step reuses the installed schedule at the
// cost of one allocation-free divergence check.
//
// Tuning::refresh (opt-in) closes the *model* side of the same loop
// (DESIGN.md §14) with the library's one closed-loop controller: every step
// calls model::ClosedLoopScheduler::step at the step's ThermalRamp leakage
// scale, which executes the installed schedule on the SoC, mirrors the
// per-phase PowerMon samples into the trace session and streams them into
// the drift detector. When the detector fires and the loop refits, the
// engine re-runs retune() -- re-profile, re-search without the dead-band,
// rebaseline ScheduleReuse -- so work drift and model drift share one
// install/reuse bookkeeping path.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/refresh.hpp"
#include "core/schedule.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "fmm/session.hpp"
#include "hw/soc.hpp"

namespace eroof::dynamics {

/// Old name of model::TuneContext. perfbench/perfbench.cpp is its only
/// user; once the benchmark spells model::TuneContext, delete this line.
using TuneContext = model::TuneContext;

class DynamicsEngine {
 public:
  /// DVFS tuning knobs, all inert while `context` is null.
  struct Tuning {
    /// The shared tuning context; null = no DVFS tuning.
    std::shared_ptr<const model::TuneContext> context;

    /// Opt-in closed-loop model refresh under thermal drift.
    struct Refresh {
      bool enabled = false;
      model::OnlineRefreshConfig online;
      /// Ground-truth die-temperature trajectory, indexed by step.
      hw::ThermalRamp ramp;
      /// Root of the per-step PowerMon measurement-noise streams.
      std::uint64_t measure_seed = 0;
    };
    Refresh refresh;
  };

  struct Config {
    fmm::FmmSession::Config session;
    Tuning tuning;
  };

  DynamicsEngine(std::shared_ptr<const fmm::Kernel> kernel,
                 ParticleSystem particles, Config cfg);

  /// One time step: advance -> move_to -> evaluate_into -> energy, then
  /// (with tuning on) the drift check and, rarely, a re-search; with
  /// refresh on, additionally the in-service measurement + model drift
  /// check and, rarely, a refit + DP re-run.
  void step(Mover& mover);

  /// Potentials of the last step, caller (particle) order.
  std::span<const double> potentials() const { return phi_; }
  /// (1/2) sum_i q_i phi_i of the last step.
  double potential_energy() const { return energy_; }

  const ParticleSystem& particles() const { return ps_; }
  fmm::FmmSession& session() { return session_; }
  const fmm::FmmSession& session() const { return session_; }

  /// The installed per-phase schedule, owned by the closed loop; null until
  /// the first tuned step (or always, with tuning off).
  const model::PhaseSchedule* schedule() const {
    return loop_ ? &loop_->schedule() : nullptr;
  }
  const model::ScheduleReuse* schedule_reuse() const {
    return reuse_ ? &*reuse_ : nullptr;
  }
  /// The refresh state; null unless Tuning::refresh is enabled.
  const model::OnlineRefresh* refresh() const {
    return cfg_.tuning.refresh.enabled && loop_ ? &loop_->refresh() : nullptr;
  }

  struct Stats {
    std::uint64_t steps = 0;
    /// Schedule searches actually run (step 0, work drift, and -- with
    /// refresh on -- model-drift rebaselines; those also count below).
    std::uint64_t tunes = 0;
    std::uint64_t refreshes = 0;    ///< drift-triggered model refits
    double measured_energy_j = 0;   ///< cumulative in-service energy (noisy)
    double measured_time_s = 0;
    double last_leak_scale = 1.0;   ///< thermal state of the last step
    double drift = 0;               ///< detector EWMA after the last step
  };
  const Stats& stats() const { return stats_; }

 private:
  void gather_phase_work();
  void retune();

  Config cfg_;
  ParticleSystem ps_;
  fmm::FmmSession session_;
  std::vector<double> phi_;
  double energy_ = 0;
  /// Work-drift monitor: decides when retune() runs; holds no schedule.
  std::optional<model::ScheduleReuse> reuse_;
  /// The installed schedule's one owner: emplaced by the first retune(),
  /// retarget()ed by every later one, stepped only with refresh on.
  std::optional<model::ClosedLoopScheduler> loop_;
  /// Per-phase structural work of the last evaluation, UP,U,V,W,X,DOWN --
  /// the profile_gpu_execution phase order the schedule is searched in.
  std::array<double, 6> work_{};
  Stats stats_;
};

}  // namespace eroof::dynamics
