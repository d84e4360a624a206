// Reproduces Figure 7: total FMM energy split into Computation / Data /
// Constant power for every (setting, input) test case, plus the paper's
// contrast with the microbenchmarks.
//
// Paper's observations: constant power is 75-95% of the FMM's total energy
// (vs ~30% for the microbenchmarks), which is why the FMM's most
// energy-efficient DVFS setting is also its fastest.
// Writes fig7_constant.csv next to the binary.
#include <iostream>

#include "bench/common.hpp"
#include "core/profile.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;
  const auto ctx = model::TuneContext::tegra_default();
  const auto& settings = hw::table4_settings();

  std::cout << "Figure 7: FMM energy split into computation / data / "
               "constant power (percent of total)\n\n";
  util::Table t({"Case", "Computation %", "Data %", "Constant %",
                 "Total (J)"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight});
  util::CsvWriter csv("fig7_constant.csv",
                      {"setting", "input", "computation_pct", "data_pct",
                       "constant_pct", "total_j"});

  std::vector<double> const_shares;
  for (const auto& in : bench::kFmmInputs) {
    const auto prof = bench::profile_fmm_input(in);
    const auto total = prof.total(in.id);
    for (std::size_t si = 0; si < settings.size(); ++si) {
      double time = 0;
      for (const auto& ph : prof.phases)
        time += ctx->soc.execution_time(ph.workload, settings[si]);
      const auto bd =
          model::breakdown(ctx->model, total.ops, settings[si], time);
      const double comp = 100.0 * bd.computation_j() / bd.total_j();
      const double data = 100.0 * bd.data_j() / bd.total_j();
      const double cons = 100.0 * bd.constant_j / bd.total_j();
      const_shares.push_back(cons);
      const std::string label =
          std::string("S") + std::to_string(si + 1) + "-" + in.id;
      t.add_row({label, util::Table::num(comp, 1), util::Table::num(data, 1),
                 util::Table::num(cons, 1),
                 util::Table::num(bd.total_j(), 3)});
      csv.add_row({"S" + std::to_string(si + 1), in.id,
                   util::Table::num(comp, 3), util::Table::num(data, 3),
                   util::Table::num(cons, 3),
                   util::Table::num(bd.total_j(), 6)});
    }
  }
  t.print(std::cout);

  const auto s = util::summarize(const_shares);
  std::cout << "\nConstant-power share across the 64 cases: mean "
            << util::Table::num(s.mean, 1) << "%, range "
            << util::Table::num(s.min, 1) << "% .. "
            << util::Table::num(s.max, 1)
            << "% (paper: 75-95%).\n";

  // The microbenchmark contrast (Section IV-C).
  const auto sweep = ub::intensity_sweep(ub::BenchClass::kSpFlops);
  std::vector<double> ub_shares;
  const auto s1 = hw::setting(852, 924);
  for (const auto& point : sweep) {
    const double time = ctx->soc.execution_time(point.workload, s1);
    const auto bd =
        model::breakdown(ctx->model, point.workload.ops, s1, time);
    ub_shares.push_back(100.0 * bd.constant_j / bd.total_j());
  }
  const auto us = util::summarize(ub_shares);
  std::cout << "Microbenchmark (SP sweep at 852/924) constant-power share: "
               "mean "
            << util::Table::num(us.mean, 1) << "%, min "
            << util::Table::num(us.min, 1)
            << "% (paper: ~30%) -- far below the FMM's.\n"
            << "Series exported to fig7_constant.csv.\n";
  return 0;
}
