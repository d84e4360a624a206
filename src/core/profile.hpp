// Application energy profiling (paper Section IV): attributes a run's
// predicted energy to instruction classes, memory levels, and constant
// power -- the decompositions behind the paper's Figures 4, 6 and 7.
#pragma once

#include <array>

#include "core/model.hpp"

namespace eroof::model {

/// Where a run's energy went, by the model's accounting.
struct EnergyBreakdown {
  /// Dynamic energy per operation class (J); L1 is priced at the SM rate.
  std::array<double, hw::kNumOpClasses> op_energy_j{};
  /// Constant-power energy pi_0 * T (J).
  double constant_j = 0;

  /// Energy of computation instructions (SP + DP + integer).
  double computation_j() const;
  /// Energy of data movement (SM + L1 + L2 + DRAM).
  double data_j() const;
  double total_j() const;
};

/// Prices `ops` executed in `time_s` at setting `s` under `model`.
EnergyBreakdown breakdown(const EnergyModel& model, const hw::OpCounts& ops,
                          const hw::DvfsSetting& s, double time_s);

}  // namespace eroof::model
