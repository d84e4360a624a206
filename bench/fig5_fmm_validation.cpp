// Reproduces Table IV + Figure 5: predicted vs measured FMM energy for all
// 64 test cases (8 DVFS settings S1..S8 x 8 inputs F1..F8).
//
// Paper: mean error 6.17%, sd 4.65%, range 0.09% .. 14.89%.
// Writes fig5_validation.csv next to the binary.
#include <iostream>

#include "bench/common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;
  const auto ctx = model::TuneContext::tegra_default();
  const auto& settings = hw::table4_settings();

  std::cout << "Table IV: DVFS settings and FMM inputs used for "
               "validation\n\n";
  util::Table tsettings({"ID", "Core Frequency", "Memory Frequency"},
                        {util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight});
  for (std::size_t i = 0; i < settings.size(); ++i)
    tsettings.add_row({"S" + std::to_string(i + 1),
                       util::Table::num(settings[i].core.freq_mhz, 0) + " MHz",
                       util::Table::num(settings[i].mem.freq_mhz, 0) + " MHz"});
  tsettings.print(std::cout);
  std::cout << '\n';
  util::Table tinputs({"ID", "N", "Q"}, {util::Align::kLeft,
                                         util::Align::kRight,
                                         util::Align::kRight});
  for (const auto& in : bench::kFmmInputs)
    tinputs.add_row({in.id, std::to_string(in.n), std::to_string(in.q)});
  tinputs.print(std::cout);

  std::cout << "\nFigure 5: estimated vs measured energy over the 64 test "
               "cases\n\n";
  util::Table t({"Case", "Measured (J)", "Predicted (J)", "Error (%)"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  util::CsvWriter csv("fig5_validation.csv",
                      {"setting", "input", "measured_j", "predicted_j",
                       "error_pct"});

  const util::RngStream root(11);
  std::vector<double> errors;
  for (const auto& in : bench::kFmmInputs) {
    const auto prof = bench::profile_fmm_input(in);
    for (std::size_t si = 0; si < settings.size(); ++si) {
      const auto run = bench::run_fmm_profile(*ctx, prof, settings[si],
                                              root.fork(in.id).fork(si));
      const double pred =
          ctx->model.predict_energy_j(run.ops, settings[si], run.time_s);
      const double err = util::relative_error_pct(pred, run.energy_j);
      errors.push_back(err);
      const std::string label =
          std::string("S") + std::to_string(si + 1) + "-" + in.id;
      t.add_row({label, util::Table::num(run.energy_j, 3),
                 util::Table::num(pred, 3), util::Table::num(err, 2)});
      csv.add_row({"S" + std::to_string(si + 1), in.id,
                   util::Table::num(run.energy_j, 6),
                   util::Table::num(pred, 6), util::Table::num(err, 4)});
    }
  }
  t.print(std::cout);

  const auto s = util::summarize(errors);
  std::cout << "\nError over all " << errors.size()
            << " cases: mean " << util::Table::num(s.mean, 2) << "%, sd "
            << util::Table::num(s.stddev, 2) << "%, min "
            << util::Table::num(s.min, 2) << "%, max "
            << util::Table::num(s.max, 2) << "%\n"
            << "Paper: mean 6.17%, sd 4.65%, min 0.09%, max 14.89%.\n"
            << "Series exported to fig5_validation.csv.\n";
  return 0;
}
