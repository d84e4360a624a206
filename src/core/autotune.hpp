// Autotuning for energy (paper Section II-E): given measurements of a
// workload across the DVFS grid, pick the setting that minimizes energy
// (a) by the fitted model's prediction, and (b) by a "time oracle" that
// simply picks the best-performing setting (the race-to-halt strategy);
// score both against the experimentally measured minimum.
#pragma once

#include <span>
#include <vector>

#include "core/model.hpp"
#include "hw/soc.hpp"

namespace eroof::model {

/// Measurements of one workload across candidate DVFS settings; each
/// setting is measured `repeats` times and averaged (the measured minimum
/// is meaningless if single-shot noise exceeds the separation between
/// settings). Every (setting, repeat) run is measured in parallel from its
/// own stream, forked off `root` by (workload name, setting label, repeat
/// index); repeats are then averaged serially in repeat order.
/// Results are bitwise-identical across thread counts and grid iteration
/// order.
std::vector<hw::Measurement> measure_grid(
    const hw::Soc& soc, const hw::Workload& w,
    std::span<const hw::DvfsSetting> grid, const hw::PowerMon& monitor,
    const util::RngStream& root, int repeats = 3);

/// Outcome of tuning one workload.
struct TuneOutcome {
  std::size_t model_idx = 0;   ///< setting the model predicts is best
  std::size_t oracle_idx = 0;  ///< setting the time oracle picks
  std::size_t best_idx = 0;    ///< setting with the lowest *measured* energy
  bool model_correct = false;
  bool oracle_correct = false;
  /// Extra energy (%) the chosen setting dissipated vs the measured minimum.
  double model_lost_pct = 0;
  double oracle_lost_pct = 0;
};

/// Relative tolerance under which autotune() counts two measurements as
/// tied: settings within 0.5% are indistinguishable -- several ladder points
/// share a voltage (e.g. 68 and 204 MHz memory at 800 mV), producing
/// physically exact energy ties that only measurement noise separates.
inline constexpr double kTieTolerance = 5e-3;

/// Scores model-based and oracle-based selection over grid measurements.
///
/// The model choice minimizes predict_energy_j using each setting's
/// *measured* execution time (the model prices energy given time, per
/// eq. 9). The oracle choice minimizes measured time; candidates within
/// kTieTolerance of the fastest time count as tied, and the tie goes to the
/// higher frequencies (race-to-halt) -- under measurement noise exact time
/// ties never occur, so an exact comparison would leave the pick dependent
/// on noise order. A choice is "correct" when its measured energy is within
/// kTieTolerance of the minimum.
TuneOutcome autotune(const EnergyModel& model,
                     std::span<const hw::Measurement> grid);

}  // namespace eroof::model
