// Closed-loop online refresh of the eq.-9 energy model (DESIGN.md §14).
//
// The batch pipeline fits the model once, from a dedicated microbenchmark
// campaign, and every schedule thereafter trusts it. But the ground-truth
// SoC's leakage tracks die temperature: as a long-horizon run heats the
// chip (hw::ThermalRamp sweeping GroundTruthEnergy::leak_scale), the true
// constant power pi_0 grows away from the fitted one and the "optimal"
// schedule -- typically low clocks that stretch runtime to save dynamic
// energy -- starts overpaying leakage. A deployed autotuner must notice and
// re-fit from the measurements it gets for free: the in-service PowerMon
// samples of the phases it is already scheduling.
//
// Three pieces close the loop:
//
//   IncrementalGram -- maintains the batch fit's normal equations as a
//     stream: G <- lambda G + r r^T, A^T b <- lambda A^T b + r e, with an
//     exponential forgetting factor lambda so old thermal regimes age out.
//     Accumulation order matches fit_energy_model's assembly pass exactly,
//     so lambda = 1 reproduces the batch fit bit for bit (both solve via
//     fit_normal_equations).
//
//   OnlineRefresh -- wraps the stream with a drift detector: an EWMA of the
//     *signed* relative prediction error (measured - predicted)/measured
//     per observed phase. Signed and smoothed on purpose: the simulator's
//     per-workload activity_sigma is a systematic few-percent bias that a
//     naive absolute-error trigger would fire on forever, while genuine
//     thermal drift biases every phase the same direction and accumulates
//     in the mean. Past `drift_bound` (after a cooldown) the caller re-fits
//     and re-runs the PR 5 chain DP.
//
//   ClosedLoopScheduler -- the one closed-loop controller: built from a
//     shared TuneContext and a phase chain, it executes the installed
//     schedule on a thermally drifting SoC, streams the per-phase
//     measurements into OnlineRefresh, and on a trigger refits + reinstalls
//     the DP schedule behind an install dead-band. The dynamics engine
//     (dynamics::DynamicsEngine, Tuning::refresh) steps the same object and
//     retarget()s it whenever it re-profiles the chain.
//
// Identifiability: an in-service schedule visits only a handful of the 105
// grid settings, so the streamed rows alone underdetermine the 9-column
// system (the three constant-power columns are nearly collinear at a fixed
// voltage). Two mitigations: an *anchor* -- the context's seed campaign
// Gram folded in at a fixed fraction of the live stream's weight -- and an
// *idle probe*, a zero-op kernel whose measurement is a pure pi_0 row at
// the probed voltage (its sub-sample-period duration exercises PowerMon's
// 2-point-trapezoid contract).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/fit.hpp"
#include "core/schedule.hpp"
#include "hw/powermon.hpp"
#include "hw/soc.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace eroof::model {

/// Streaming normal equations for the 9-column fit with exponential
/// forgetting: every add() first decays the accumulated system by
/// `forgetting`, then accumulates the new row rank-1 -- in exactly the
/// batch assembly's floating-point order, so forgetting == 1 makes fit()
/// bitwise-equal to fit_energy_model on the same rows.
class IncrementalGram {
 public:
  explicit IncrementalGram(double forgetting = 1.0);

  /// Decay-then-accumulate one design row with target energy `energy_j`.
  void add(std::span<const double, kNumFitColumns> row, double energy_j);
  /// Convenience: builds the design row from a sample.
  void add(const FitSample& s);

  /// Equilibrated NNLS solve of the accumulated system.
  FitResult fit() const;

  /// Like fit(), but folds `anchor`'s system in at
  /// `anchor_fraction * weight() / anchor.weight()` -- i.e. the anchor
  /// contributes a fixed fraction of the live stream's evidence mass no
  /// matter how long either has accumulated. Keeps the solve well-posed
  /// when the stream visits few voltages without pinning it to the
  /// anchor's (stale) thermal regime.
  FitResult fit(const IncrementalGram& anchor, double anchor_fraction) const;

  /// Total decayed sample weight (sum of lambda^age over rows).
  double weight() const { return weight_; }
  /// Rows ever accumulated (not decayed).
  std::uint64_t rows() const { return rows_; }
  double forgetting() const { return forgetting_; }

 private:
  la::Matrix assembled() const;  ///< mirrors the live upper triangle

  double forgetting_ = 1.0;
  la::Matrix gram_;  ///< upper triangle live; lower mirrored at fit time
  std::array<double, kNumFitColumns> atb_{};
  double btb_ = 0;
  double weight_ = 0;
  std::uint64_t rows_ = 0;
};

struct OnlineRefreshConfig {
  /// Per-observation decay of the streamed normal equations. 1 = never
  /// forget (batch-equivalent); the default half-life is ~140 observations.
  double forgetting = 0.995;
  /// |EWMA of signed relative prediction error| that triggers a refresh.
  double drift_bound = 0.05;
  /// EWMA smoothing weight of one observation.
  double drift_alpha = 0.2;
  /// Anchor mass as a fraction of the live stream's (0 disables).
  double anchor_weight = 0.1;
  /// Observations before the first refresh may fire.
  std::size_t min_observations = 2 * kNumFitColumns;
  /// Observations between refreshes (lets the EWMA re-converge).
  std::size_t cooldown = 12;
};

/// The streaming re-fit path + drift detector. Holds the currently trusted
/// EnergyModel; observe() feeds it one measured phase at a time.
class OnlineRefresh {
 public:
  /// `anchor`: the identifiability anchor -- the (batch) campaign the seed
  /// model was fitted from, accumulated once with forgetting 1. Empty = no
  /// anchor.
  explicit OnlineRefresh(EnergyModel seed, OnlineRefreshConfig cfg = {},
                         std::span<const FitSample> anchor = {});

  /// One in-service measurement: updates the drift EWMA against the current
  /// model's prediction and rank-1-updates the streamed Gram. Non-finite
  /// samples (a NaN energy from a corrupted trace, a non-positive time) are
  /// rejected -- counted, never accumulated -- so one poisoned sample
  /// cannot contaminate the normal equations. Returns drift().
  double observe(const FitSample& s);

  /// Signed EWMA of the relative prediction error; positive = the model
  /// underpredicts (e.g. leakage grew).
  double drift() const { return drift_; }

  /// True when |drift| exceeds the bound and enough observations have
  /// accumulated since the start / the last refresh.
  bool should_refresh() const;

  /// Re-fits from the streamed (plus anchored) normal equations, adopts the
  /// result as the trusted model, and resets the drift EWMA.
  FitResult refresh();

  const EnergyModel& model() const { return model_; }
  const IncrementalGram& gram() const { return gram_; }
  const OnlineRefreshConfig& config() const { return cfg_; }

  struct Stats {
    std::uint64_t observations = 0;  ///< samples accumulated
    std::uint64_t rejected = 0;      ///< non-finite samples dropped
    std::uint64_t refreshes = 0;     ///< re-fits performed
    std::uint64_t last_refresh_observation = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  OnlineRefreshConfig cfg_;
  EnergyModel model_;
  IncrementalGram gram_;
  IncrementalGram anchor_;
  bool has_anchor_ = false;
  double drift_ = 0;
  Stats stats_;
};

/// The zero-op probe kernel: launch overhead only, so its measured energy is
/// (almost) pure pi_0 * T at the probed setting and its design row has zero
/// dynamic columns. Runs for the SoC's kernel overhead (~15 us), far below
/// one PowerMon sample period -- the 2-point-trapezoid path.
hw::Workload idle_probe_workload();

/// Adapts an idle-probe measurement into a regression row, extrapolated to
/// `ref_time_s`. The probe runs for ~15 us, so taken verbatim its row
/// (~1e-4 J) would be invisible next to second-long phase rows in the
/// unweighted least squares and the pi_0 split would stay unidentified.
/// A zero-op row is exactly linear in its duration (every live column is a
/// V * T term, and the energy is p * T), so rescaling to a phase-magnitude
/// reference duration is the measured average power restated over ref_time_s
/// -- not an invented sample. Requires a finite, positive measured duration.
FitSample probe_fit_sample(const hw::Measurement& m, double ref_time_s = 1.0);

/// White-box validation oracle: the prediction table an omniscient per-step
/// re-fit would use -- roofline times plus *ground-truth* energies and pi_0
/// straight from `soc` (at its current leakage scale). Benchmarks and tests
/// score controllers against schedule_phases() on this table; the closed
/// loop itself never calls it.
PhaseGridPrediction oracle_phase_grid(const hw::Soc& soc,
                                      std::span<const hw::Workload> phases,
                                      std::span<const hw::DvfsSetting> grid);

/// Install dead-band of ClosedLoopScheduler: after a refit, the fresh DP
/// schedule replaces the installed one only if the *new* model predicts at
/// least this relative improvement from switching. Refits move the
/// coefficients a little every time (measurement noise, the ground truth's
/// voltage bend that a linear-in-V pi_0 cannot express); without hysteresis
/// the DP flips between near-tied settings and the controller thrashes --
/// paying transition costs, and occasionally pinning a bias-driven pick.
inline constexpr double kInstallDeadband = 0.01;

/// The closed-loop controller for a phase chain: owns the installed
/// chain-DP schedule (pure energy objective) and an OnlineRefresh seeded
/// with the context's model and anchored on its campaign. Each step
/// executes the schedule on `ctx.soc.with_leakage_scale(leak_scale)` with
/// measurement noise from the caller's stream, mirrors the phases' PowerMon
/// traces into the trace session, observes every phase plus the rotating
/// idle probe, and on a drift trigger refits + re-runs the DP behind
/// kInstallDeadband. Everything is a pure function of (context, phases,
/// config, the per-step (leak_scale, stream) arguments), bitwise-identical
/// across OpenMP thread counts.
class ClosedLoopScheduler {
 public:
  ClosedLoopScheduler(std::shared_ptr<const TuneContext> ctx,
                      std::vector<hw::Workload> phases,
                      OnlineRefreshConfig cfg = {});

  struct StepReport {
    double leak_scale = 1.0;
    double measured_energy_j = 0;  ///< noisy, what the controller saw
    double measured_time_s = 0;
    double drift = 0;              ///< detector state after the step
    bool refreshed = false;        ///< refit + DP re-run fired this step
  };

  /// One closed-loop step at the given thermal state.
  StepReport step(double leak_scale, const util::RngStream& noise);

  /// Adopts a re-profiled phase chain and installs the DP schedule for it
  /// under the currently trusted model -- unconditionally, without the
  /// dead-band (the installed picks belong to the old chain).
  void retarget(std::vector<hw::Workload> phases);

  /// The installed schedule, priced by the currently trusted model (a refit
  /// that keeps the picks re-prices them).
  const PhaseSchedule& schedule() const { return schedule_; }
  /// The installed schedule's per-phase settings (grid lookups applied).
  std::span<const hw::DvfsSetting> settings() const { return settings_; }
  const OnlineRefresh& refresh() const { return refresh_; }
  const EnergyModel& model() const { return refresh_.model(); }
  std::span<const hw::Workload> phases() const { return phases_; }

 private:
  /// Chain DP with the currently trusted model; `deadband` keeps the
  /// installed picks unless switching predicts a kInstallDeadband gain.
  void install(bool deadband);

  std::shared_ptr<const TuneContext> ctx_;
  std::vector<hw::Workload> phases_;
  hw::PowerMon meter_;
  OnlineRefresh refresh_;
  PhaseSchedule schedule_;
  std::vector<hw::DvfsSetting> settings_;
  std::vector<hw::PowerTrace> traces_;  ///< reused per-step trace buffer
  std::uint64_t steps_ = 0;
};

}  // namespace eroof::model
