// Per-phase DVFS scheduling (paper Section V, taken one step further).
//
// The paper applies the fitted energy model to the KIFMM's counter-derived
// per-phase profiles to *price* each phase at each setting; this module
// closes the loop and *chooses* the clocks. Given the fitted EnergyModel,
// the per-phase hw::Workloads of an fmm::FmmGpuProfile (or any phase
// sequence) and the 15 x 7 DVFS grid, it
//
//   (a) predicts every (phase, setting) cell's execution time via the SoC
//       roofline timing model and its energy via eq. 9,
//   (b) selects the per-phase setting sequence minimizing predicted energy
//       (optionally energy + lambda * time) under a configurable DVFS
//       transition-cost model -- an exact O(P * S^2) chain dynamic program,
//       so the scheduler learns when switching between UP/U/V/W/X/DOWN is
//       worth the relock stall, and
//   (c) sweeps lambda to emit the energy-vs-time Pareto frontier, plus the
//       uniform-best-setting and race-to-halt baselines every comparison
//       table needs.
//
// Per-kernel DVFS selection is where related work (Calore et al.; Silva et
// al.) finds the real wins over race-to-halt: a phase that leaves one clock
// domain idle can floor that domain's voltage, trimming the
// voltage-dependent constant power pi_0 (eq. 8) even when constant power
// dominates total energy. Validation against the simulator's ground truth
// prices a schedule with price_schedule over oracle_phase_grid (noiseless)
// or runs it through hw::Soc::run_sequence (measured).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fit.hpp"
#include "core/model.hpp"
#include "hw/soc.hpp"
#include "ubench/campaign.hpp"

namespace eroof::model {

/// Everything the per-phase schedule search needs, fitted once and shared
/// read-only by every caller (serving workers, dynamics engines, the closed
/// loop, the reproduction benches): the SoC model, the energy model fitted
/// from the paper campaign's training half, the DVFS grid, the
/// transition-cost model, and the whole campaign in measurement order (both
/// roles) -- its training half is the closed loop's identifiability anchor.
/// Hand-built contexts may leave `campaign` empty (no anchor).
struct TuneContext {
  hw::Soc soc;
  EnergyModel model;
  std::vector<hw::DvfsSetting> grid;
  hw::DvfsTransitionModel transitions;
  std::vector<ub::Sample> campaign;

  /// The campaign samples of one role, as regression samples, in
  /// measurement order.
  std::vector<FitSample> samples(hw::SettingRole role) const;
  /// Every campaign sample, as a regression sample, in measurement order.
  std::vector<FitSample> all_samples() const;

  /// Tegra K1 SoC, model fitted from the paper campaign (seed 42), full
  /// clock grid, realistic 100us/50uJ transitions.
  static std::shared_ptr<const TuneContext> tegra_default();
};

/// Dense per-(phase, setting) prediction table, row-major by phase. Times
/// come from the SoC's roofline timing model (utilization-aware, noiseless);
/// energies from the fitted model priced at those times; `const_power_w` is
/// the model's pi_0 per setting, used to price transition stalls.
struct PhaseGridPrediction {
  std::vector<std::string> phase_names;     ///< P phase labels
  std::vector<hw::DvfsSetting> grid;        ///< S candidate settings
  std::vector<double> time_s;               ///< P x S predicted times
  std::vector<double> energy_j;             ///< P x S predicted energies
  std::vector<double> const_power_w;        ///< S modeled pi_0 values

  std::size_t n_phases() const { return phase_names.size(); }
  std::size_t n_settings() const { return grid.size(); }
  double time_at(std::size_t phase, std::size_t setting) const {
    return time_s[phase * grid.size() + setting];
  }
  double energy_at(std::size_t phase, std::size_t setting) const {
    return energy_j[phase * grid.size() + setting];
  }
};

/// Fills the prediction table for `phases` over `grid`. The (phase, setting)
/// cells are independent, so the loop is OpenMP-parallel with disjoint
/// writes -- results are bitwise-identical for every thread count.
PhaseGridPrediction predict_phase_grid(const EnergyModel& model,
                                       const hw::Soc& soc,
                                       std::span<const hw::Workload> phases,
                                       std::span<const hw::DvfsSetting> grid);

/// White-box validation oracle: the same table with roofline times,
/// *ground-truth* energies and the silicon's pi_0, straight from `soc` (at
/// its current leakage scale). A schedule's true cost is price_schedule()
/// over this table; schedule_phases() on it is the omniscient schedule no
/// measuring controller can beat. Benchmarks and tests score against it;
/// the closed loop itself never calls it.
PhaseGridPrediction oracle_phase_grid(const hw::Soc& soc,
                                      std::span<const hw::Workload> phases,
                                      std::span<const hw::DvfsSetting> grid);

/// One scheduled run: the chosen grid index per phase plus predicted totals
/// (both including transition stalls/switch energy).
struct PhaseSchedule {
  std::vector<std::size_t> pick;   ///< per-phase index into the grid
  double pred_time_s = 0;
  double pred_energy_j = 0;
  int switches = 0;                ///< domain switches the schedule pays
};

/// Exact minimizer of  sum_i E(i, pick[i]) + transition costs
///                     + time_weight * (sum_i T(i, pick[i]) + stalls)
/// over all S^P assignments, by dynamic programming over the phase chain.
/// A transition between consecutive differing settings costs the model's
/// fixed switch energy plus the stall priced at the *entered* setting's
/// modeled constant power; `time_weight` (W) converts seconds to joules for
/// the Pareto sweep -- 0 minimizes pure energy. Ties between equal-cost
/// predecessors resolve to the lowest grid index, so the schedule is a pure
/// function of the prediction table.
PhaseSchedule schedule_phases(const PhaseGridPrediction& pred,
                              const hw::DvfsTransitionModel& transitions,
                              double time_weight = 0);

/// Prices an arbitrary assignment under `pred`: the predicted totals and
/// switch count of running `pick`, transition stalls and switch energy
/// included -- the same sums schedule_phases reports for its own pick, so at
/// time_weight 0 its pred_energy_j is exactly the DP objective. Lets a
/// caller re-price an already installed schedule under a *new* prediction
/// table (e.g. the closed loop's install dead-band).
PhaseSchedule price_schedule(const PhaseGridPrediction& pred,
                             const hw::DvfsTransitionModel& transitions,
                             std::span<const std::size_t> pick);

/// The best *uniform* schedule: one setting for every phase (no switches).
/// Returned as a PhaseSchedule with all picks equal.
PhaseSchedule best_uniform_schedule(const PhaseGridPrediction& pred,
                                    double time_weight = 0);

/// Race-to-halt baseline: every phase at the highest core/memory clocks in
/// the grid.
PhaseSchedule race_to_halt_schedule(const PhaseGridPrediction& pred);

/// One energy-vs-time Pareto point: the schedule found at `time_weight`.
struct ParetoPoint {
  double time_weight = 0;
  PhaseSchedule schedule;
};

/// Sweeps `time_weights`, deduplicates identical schedules and drops
/// dominated points; returns the frontier sorted by ascending predicted
/// time (hence descending energy).
std::vector<ParetoPoint> pareto_frontier(const PhaseGridPrediction& pred,
                                         const hw::DvfsTransitionModel& transitions,
                                         std::span<const double> time_weights);

/// Everything a paper-Table-V-style comparison row needs: the per-phase
/// schedule vs the uniform model pick vs race-to-halt, each priced by the
/// model and (the `*_true` copies) by price_schedule over
/// oracle_phase_grid: noiseless roofline times, true phase energies and
/// transition stalls at the silicon's pi_0. The measured (noisy)
/// counterpart is hw::Soc::run_sequence.
struct ScheduleComparison {
  PhaseSchedule per_phase;
  PhaseSchedule uniform;
  PhaseSchedule race;
  PhaseSchedule per_phase_true;
  PhaseSchedule uniform_true;
  PhaseSchedule race_true;
};

ScheduleComparison compare_strategies(const EnergyModel& model,
                                      const hw::Soc& soc,
                                      std::span<const hw::Workload> phases,
                                      std::span<const hw::DvfsSetting> grid,
                                      const hw::DvfsTransitionModel& transitions,
                                      double time_weight = 0);

/// Maximum tolerated per-phase relative work divergence of ScheduleReuse
/// before the installed schedule is searched again.
inline constexpr double kRetuneBound = 0.10;

/// Amortizes the schedule search across a *sequence* of correlated runs --
/// a time-stepping dynamics loop, where consecutive steps' phase workloads
/// drift slowly. A pure drift monitor: the caller owns the schedule. The
/// expensive part (GPU-profile replay + prediction grid + chain DP) runs
/// once, and the caller install()s the per-phase structural work it was
/// tuned for; every subsequent step asks needs_retune() with its own work
/// vector, a cheap allocation-free check.
///
/// The drift monitor: at a fixed DVFS setting the roofline-predicted phase
/// time scales linearly in the phase's structural work, so the relative
/// divergence between the time the installed schedule predicted for phase p
/// and the time the current step would actually spend there is
/// |w_p / w0_p - 1|. When the max over phases exceeds kRetuneBound, the
/// installed picks may no longer be energy-optimal and the caller re-runs
/// the search. Model drift is the closed loop's trigger (DESIGN.md §14);
/// the dynamics engine rebaselines this monitor after either.
class ScheduleReuse {
 public:
  /// Rebaselines on the per-phase work (any scalar proportional to phase
  /// time at a fixed setting; the dynamics engine feeds FmmStats tallies)
  /// a freshly searched schedule was tuned against.
  void install(std::span<const double> phase_work);

  bool installed() const { return !work0_.empty(); }

  /// One step's decision. False: the installed schedule still fits, counted
  /// as a reuse. True: the caller re-searches and install()s the result.
  /// Two distinct causes are counted apart in Stats: an *incompatible*
  /// baseline (nothing installed yet, or the phase count changed -- the
  /// installed schedule cannot even be compared, a re-install is forced)
  /// versus an ordinary *retune* (comparable baseline whose divergence
  /// exceeded the bound). Allocation-free.
  bool needs_retune(std::span<const double> phase_work);

  /// max_p |w_p / w0_p - 1| against the installed work; +inf when a phase
  /// with zero installed work gains work (or nothing is installed), and
  /// also when any work entry -- current or installed -- is non-finite:
  /// NaN loses every comparison, so without the explicit check a poisoned
  /// tally would read as zero divergence and pin the stale schedule forever.
  double divergence(std::span<const double> phase_work) const;

  struct Stats {
    std::uint64_t installs = 0;
    std::uint64_t reuses = 0;
    std::uint64_t retunes = 0;       ///< drift past the bound (comparable)
    std::uint64_t incompatible = 0;  ///< no/mismatched baseline: forced install
  };
  const Stats& stats() const { return stats_; }

 private:
  std::vector<double> work0_;
  Stats stats_;
};

}  // namespace eroof::model
