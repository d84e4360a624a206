#include "core/fit.hpp"

#include <algorithm>
#include <cmath>

#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::model {

FitSample to_fit_sample(const hw::Measurement& m) {
  return FitSample{m.ops, m.setting, m.time_s, m.energy_j};
}

std::array<double, kNumFitColumns> design_row(const FitSample& s) {
  const double vp = s.setting.core.volt_v();
  const double vm = s.setting.mem.volt_v();
  const double vp2 = vp * vp;
  const double vm2 = vm * vm;
  const hw::OpCounts& n = s.ops;
  using hw::OpClass;

  std::array<double, kNumFitColumns> row{};
  row[static_cast<std::size_t>(Coeff::kSp)] = n[OpClass::kSpFlop] * vp2;
  row[static_cast<std::size_t>(Coeff::kDp)] = n[OpClass::kDpFlop] * vp2;
  row[static_cast<std::size_t>(Coeff::kInt)] = n[OpClass::kIntOp] * vp2;
  row[static_cast<std::size_t>(Coeff::kSm)] =
      (n[OpClass::kSmAccess] + n[OpClass::kL1Access]) * vp2;
  row[static_cast<std::size_t>(Coeff::kL2)] = n[OpClass::kL2Access] * vp2;
  row[static_cast<std::size_t>(Coeff::kDram)] = n[OpClass::kDramAccess] * vm2;
  row[kNumCoeffs + 0] = s.time_s * vp;
  row[kNumCoeffs + 1] = s.time_s * vm;
  row[kNumCoeffs + 2] = s.time_s;
  return row;
}

namespace {

FitResult unpack(const la::NnlsResult& sol, std::size_t n_samples) {
  FitResult out;
  out.n_samples = n_samples;
  out.converged = sol.converged;
  out.residual_norm = sol.residual_norm;
  for (std::size_t j = 0; j < kNumCoeffs; ++j) out.model.c0[j] = sol.x[j];
  out.model.c1_proc = sol.x[kNumCoeffs + 0];
  out.model.c1_mem = sol.x[kNumCoeffs + 1];
  out.model.p_misc = sol.x[kNumCoeffs + 2];
  return out;
}

// Shared implementation: fits on samples[rows[i]] for every i. One pass per
// sample computes its design row exactly once and accumulates it into the
// normal equations; when a trace session is installed the rows are
// additionally stashed so the residual pass reuses them instead of
// rebuilding each row a second time.
FitResult fit_on_rows(std::span<const FitSample> samples,
                      std::span<const std::size_t> rows) {
  EROOF_REQUIRE_MSG(rows.size() >= kNumFitColumns,
                    "need at least as many samples as fit columns");
  const std::size_t m = rows.size();
  trace::TraceSession* ts = trace::session();

  la::NormalEquations eq(kNumFitColumns);
  std::vector<std::array<double, kNumFitColumns>> stash;
  if (ts) stash.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const FitSample& s = samples[rows[i]];
    const auto row = design_row(s);
    eq.add(row, s.energy_j);
    if (ts) stash.push_back(row);
  }
  const la::NnlsResult sol = eq.solve();
  const FitResult out = unpack(sol, m);

  // Record the fitted model's per-sample residuals (predicted minus
  // measured energy, via the un-scaled coefficients) so a trace aligns fit
  // quality with the campaign that produced the samples. Rows come from the
  // assembly-pass stash; nothing is recomputed.
  if (ts) {
    trace::ScopedSpan span("fit_energy_model", "model.fit");
    double max_abs = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const auto& row = stash[i];
      double pred = 0;
      for (std::size_t j = 0; j < kNumFitColumns; ++j)
        pred += row[j] * sol.x[j];
      const double resid = pred - samples[rows[i]].energy_j;
      max_abs = std::max(max_abs, std::abs(resid));
      ts->emit_counter("fit.residual_j", ts->now_us(), resid);
    }
    span.arg("n_samples", static_cast<double>(m));
    span.arg("residual_norm_j", out.residual_norm);
    span.arg("max_abs_residual_j", max_abs);
    span.arg("converged", out.converged ? 1.0 : 0.0);
    ts->add_counter_total("fit.n_samples", static_cast<double>(m));
    ts->add_counter_total("fit.max_abs_residual_j", max_abs);
  }
  return out;
}

}  // namespace

FitResult fit_energy_model(std::span<const FitSample> samples) {
  std::vector<std::size_t> all(samples.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return fit_on_rows(samples, all);
}

FitResult fit_energy_model(std::span<const FitSample> samples,
                           std::span<const std::size_t> rows) {
  return fit_on_rows(samples, rows);
}

FitResult fit_energy_model(const la::NormalEquations& eq) {
  EROOF_REQUIRE(eq.cols() == kNumFitColumns);
  return unpack(eq.solve(), eq.rows());
}

}  // namespace eroof::model
