#include "core/timemodel.hpp"

#include <algorithm>
#include <limits>

#include "linalg/nnls.hpp"
#include "util/require.hpp"

namespace eroof::model {
namespace {

/// NNLS fit of core-side cycles-per-op on the samples currently classified
/// as compute-bound: T * f_core = sum_c n_c x_c.
std::array<double, kNumCoeffs> fit_core(
    std::span<const FitSample> samples, std::span<const std::size_t> idx) {
  la::NormalEquations eq(kNumCoeffs);
  for (const std::size_t i : idx) {
    const FitSample& s = samples[i];
    std::array<double, kNumCoeffs> row{};
    for (std::size_t k = 0; k < hw::kNumOpClasses; ++k) {
      const auto c =
          static_cast<std::size_t>(coeff_for(static_cast<hw::OpClass>(k)));
      if (!is_core_coeff(static_cast<Coeff>(c))) continue;
      row[c] += s.ops.n[k];
    }
    eq.add(row, s.time_s * s.setting.core.freq_hz());
  }
  // The solve equilibrates the columns (counts differ by orders of
  // magnitude) and returns the un-scaled cycles per op.
  const auto sol = eq.solve();
  std::array<double, kNumCoeffs> x{};
  for (std::size_t j = 0; j < kNumCoeffs; ++j) x[j] = sol.x[j];
  return x;
}

/// Least-squares slope through the origin for the memory side:
/// T * f_mem = n_dram * x_mem.
double fit_mem(std::span<const FitSample> samples,
               std::span<const std::size_t> idx) {
  double num = 0;
  double den = 0;
  for (const std::size_t i : idx) {
    const FitSample& s = samples[i];
    const double n = s.ops[hw::OpClass::kDramAccess];
    num += n * s.time_s * s.setting.mem.freq_hz();
    den += n * n;
  }
  return den > 0 ? num / den : 0.0;
}

}  // namespace

double TimeModel::core_cycles(const hw::OpCounts& ops) const {
  double cycles = 0;
  for (std::size_t k = 0; k < hw::kNumOpClasses; ++k) {
    const auto c = coeff_for(static_cast<hw::OpClass>(k));
    if (!is_core_coeff(c)) continue;
    cycles += ops.n[k] * core_cycles_per_op[static_cast<std::size_t>(c)];
  }
  return cycles;
}

double TimeModel::predict_time_s(const hw::OpCounts& ops,
                                 const hw::DvfsSetting& s) const {
  const double t_core = core_cycles(ops) / s.core.freq_hz();
  const double t_mem =
      ops[hw::OpClass::kDramAccess] * mem_cycles_per_word / s.mem.freq_hz();
  return std::max(t_core, t_mem);
}

TimeFitResult fit_time_model(std::span<const FitSample> samples) {
  EROOF_REQUIRE(samples.size() >= 2 * kNumFitColumns);

  // Start from everything-compute-bound and alternate.
  std::vector<bool> mem_bound(samples.size(), false);
  TimeFitResult out;
  constexpr int kMaxSweeps = 20;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    std::vector<std::size_t> core_idx;
    std::vector<std::size_t> mem_idx;
    for (std::size_t i = 0; i < samples.size(); ++i)
      (mem_bound[i] ? mem_idx : core_idx).push_back(i);
    // Keep both sides identifiable even if classification collapses.
    if (core_idx.empty() || mem_idx.empty()) {
      core_idx.resize(samples.size());
      mem_idx.resize(samples.size());
      for (std::size_t i = 0; i < samples.size(); ++i)
        core_idx[i] = mem_idx[i] = i;
    }

    out.model.core_cycles_per_op = fit_core(samples, core_idx);
    out.model.mem_cycles_per_word = fit_mem(samples, mem_idx);
    ++out.iterations;

    bool changed = false;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const FitSample& s = samples[i];
      const double t_core =
          out.model.core_cycles(s.ops) / s.setting.core.freq_hz();
      const double t_mem = s.ops[hw::OpClass::kDramAccess] *
                           out.model.mem_cycles_per_word /
                           s.setting.mem.freq_hz();
      const bool now_mem = t_mem > t_core;
      if (now_mem != mem_bound[i]) {
        mem_bound[i] = now_mem;
        changed = true;
      }
    }
    if (!changed) {
      out.converged = true;
      break;
    }
  }
  return out;
}

std::size_t predict_best_setting(const EnergyModel& energy,
                                 const TimeModel& time,
                                 const hw::OpCounts& ops,
                                 std::span<const hw::DvfsSetting> grid) {
  EROOF_REQUIRE(!grid.empty());
  std::size_t best = 0;
  double best_e = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double t = time.predict_time_s(ops, grid[i]);
    if (t <= 0) continue;
    const double e = energy.predict_energy_j(ops, grid[i], t);
    if (e < best_e) {
      best_e = e;
      best = i;
    }
  }
  return best;
}

}  // namespace eroof::model
