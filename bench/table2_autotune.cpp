// Reproduces Table II: energy autotuning. For every microbenchmark class
// and every arithmetic intensity, the workload is measured across all 105
// DVFS settings; the fitted model and a "time oracle" (race-to-halt) each
// pick a setting, scored against the experimentally measured minimum.
//
// Paper's headline: the oracle picks an energy-inefficient configuration in
// 20/25 single-precision cases (mean 18.52% energy lost), while the model
// is right every time; for L2 the oracle loses ~10.7% on every point.
#include <iostream>
#include <limits>

#include "bench/common.hpp"
#include "core/autotune.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;
  const auto ctx = model::TuneContext::tegra_default();
  const util::RngStream root(101);

  std::cout << "Table II: energy autotuning -- fitted model vs time oracle "
               "(race-to-halt) across the 105-setting grid\n\n";
  util::Table t({"Benchmark", "Chooser", "Mispredictions", "Mean lost (%)",
                 "Min lost (%)", "Max lost (%)"},
                {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});

  for (const auto cls :
       {ub::BenchClass::kSpFlops, ub::BenchClass::kDpFlops,
        ub::BenchClass::kIntOps, ub::BenchClass::kSharedMem,
        ub::BenchClass::kL2}) {
    const auto sweep = ub::intensity_sweep(cls);
    int model_wrong = 0;
    int oracle_wrong = 0;
    std::vector<double> model_lost;
    std::vector<double> oracle_lost;
    for (const auto& point : sweep) {
      const auto ms =
          model::measure_grid(ctx->soc, point.workload, ctx->grid,
                              hw::PowerMon{}, root);
      const auto out = model::autotune(ctx->model, ms);
      if (!out.model_correct) {
        ++model_wrong;
        model_lost.push_back(out.model_lost_pct);
      }
      if (!out.oracle_correct) {
        ++oracle_wrong;
        oracle_lost.push_back(out.oracle_lost_pct);
      }
    }

    const auto emit = [&](const char* chooser, int wrong,
                          const std::vector<double>& lost) {
      const std::string frac = std::to_string(wrong) + " (out of " +
                               std::to_string(sweep.size()) + ")";
      if (lost.empty()) {
        t.add_row({ub::to_string(cls), chooser, frac, "0", "0", "0"});
      } else {
        const auto s = util::summarize(lost);
        t.add_row({ub::to_string(cls), chooser, frac,
                   util::Table::num(s.mean, 2), util::Table::num(s.min, 2),
                   util::Table::num(s.max, 2)});
      }
    };
    emit("Our model", model_wrong, model_lost);
    emit("Time Oracle", oracle_wrong, oracle_lost);
  }
  t.print(std::cout);

  std::cout << "\nPaper: SP model 0/25 vs oracle 20/25 (18.52% mean lost); "
               "DP 10/36 vs 23/36; Int 6/23 vs 23/23; SM 7/10 vs 10/10; "
               "L2 0/9 vs 0/9 (10.71% mean lost).\n"
            << "'Lost' statistics are over mispredicted cases only, as in "
               "the paper.\n";
  return 0;
}
