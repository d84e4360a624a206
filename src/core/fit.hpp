// Model instantiation (paper Section II-C): builds the regression problem
// linking measured run energies to operation counts, execution times, and
// voltages, and solves it with non-negative least squares.
//
// One sample is one measured run. Its design row has nine columns:
//   [ W_sp Vp^2, W_dp Vp^2, W_int Vp^2, (Q_sm + Q_l1) Vp^2, Q_l2 Vp^2,
//     Q_dram Vm^2,  T Vp,  T Vm,  T ]
// whose coefficients are, respectively, the six dynamic energy constants
// c0 (eqs. 6-7), the two leakage slopes c1 and Pmisc (eq. 8). All nine are
// physical energies/powers, hence the non-negativity constraint.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "hw/soc.hpp"
#include "linalg/nnls.hpp"

namespace eroof::model {

/// Columns of the design matrix: the six c0, then c1_proc, c1_mem, p_misc.
inline constexpr std::size_t kNumFitColumns = kNumCoeffs + 3;

/// One regression sample.
struct FitSample {
  hw::OpCounts ops;
  hw::DvfsSetting setting;
  double time_s = 0;
  double energy_j = 0;
};

/// Adapts a platform measurement into a regression sample.
FitSample to_fit_sample(const hw::Measurement& m);

/// The design row for one sample (exposed for tests).
std::array<double, kNumFitColumns> design_row(const FitSample& s);

/// Outcome of a fit.
struct FitResult {
  EnergyModel model;
  double residual_norm = 0;   ///< ||A x - E|| over the training set (J)
  std::size_t n_samples = 0;
  bool converged = false;
};

/// Fits the DVFS-aware model to `samples` by NNLS: one pass computes each
/// design row exactly once and accumulates it into the 9-column
/// la::NormalEquations (forgetting 1), whose solve equilibrates the columns
/// (counts are ~1e8 while T is ~1e-1) and un-scales the coefficients.
FitResult fit_energy_model(std::span<const FitSample> samples);

/// Fits on the subset samples[rows[0]], samples[rows[1]], ... without
/// materializing a per-fold copy of the samples. Cross-validation partitions
/// index scratch instead of copying FitSamples; results for a given subset
/// are identical to fitting the copied subset.
FitResult fit_energy_model(std::span<const FitSample> samples,
                           std::span<const std::size_t> rows);

/// Solves normal equations accumulated elsewhere from design rows -- the
/// streaming refresh (core/refresh) keeps its own -- and unpacks the
/// coefficients into an EnergyModel. n_samples is `eq.rows()`. Fed the
/// same rows at forgetting 1, it returns the batch fit bit for bit.
FitResult fit_energy_model(const la::NormalEquations& eq);

}  // namespace eroof::model
