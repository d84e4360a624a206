// Reproduces Figure 6: the FMM kernel's energy broken down by operation
// type (instructions and memory levels) for each input F1..F8, with both
// clocks at maximum frequency (852 / 924 MHz).
//
// Paper's observations: integer instructions, ~60% of the instruction
// stream, account for a minor share of total energy; DRAM serves ~13% of
// accesses but costs up to 50% of data-access energy; L2 30-40%; L1 10-20%.
// Writes fig6_energy.csv next to the binary.
#include <iostream>

#include "bench/common.hpp"
#include "core/profile.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;
  using hw::OpClass;
  const auto ctx = model::TuneContext::tegra_default();
  const auto s1 = hw::setting(852, 924);

  std::cout << "Figure 6: FMM energy by operation type at maximum "
               "frequency (852/924 MHz)\n\n";
  util::Table t({"Input", "SP %", "DP %", "Integer %", "SM %", "L1 %",
                 "L2 %", "DRAM %", "Dynamic (J)"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  util::CsvWriter csv("fig6_energy.csv",
                      {"input", "sp_pct", "dp_pct", "int_pct", "sm_pct",
                       "l1_pct", "l2_pct", "dram_pct", "dynamic_j"});

  std::vector<double> int_comp_shares;
  std::vector<double> dram_data_shares;
  std::vector<double> l2_data_shares;
  for (const auto& in : bench::kFmmInputs) {
    const auto prof = bench::profile_fmm_input(in);
    const auto total = prof.total(in.id);
    double time = 0;
    for (const auto& ph : prof.phases)
      time += ctx->soc.execution_time(ph.workload, s1);
    const auto bd = model::breakdown(ctx->model, total.ops, s1, time);

    const double dyn = bd.computation_j() + bd.data_j();
    const auto pct = [&](OpClass op) {
      return 100.0 * bd.op_energy_j[static_cast<std::size_t>(op)] / dyn;
    };
    t.add_row({in.id, util::Table::num(pct(OpClass::kSpFlop), 1),
               util::Table::num(pct(OpClass::kDpFlop), 1),
               util::Table::num(pct(OpClass::kIntOp), 1),
               util::Table::num(pct(OpClass::kSmAccess), 1),
               util::Table::num(pct(OpClass::kL1Access), 1),
               util::Table::num(pct(OpClass::kL2Access), 1),
               util::Table::num(pct(OpClass::kDramAccess), 1),
               util::Table::num(dyn, 3)});
    csv.add_row({in.id, util::Table::num(pct(OpClass::kSpFlop), 3),
                 util::Table::num(pct(OpClass::kDpFlop), 3),
                 util::Table::num(pct(OpClass::kIntOp), 3),
                 util::Table::num(pct(OpClass::kSmAccess), 3),
                 util::Table::num(pct(OpClass::kL1Access), 3),
                 util::Table::num(pct(OpClass::kL2Access), 3),
                 util::Table::num(pct(OpClass::kDramAccess), 3),
                 util::Table::num(dyn, 6)});

    int_comp_shares.push_back(
        100.0 * bd.op_energy_j[static_cast<std::size_t>(OpClass::kIntOp)] /
        bd.computation_j());
    dram_data_shares.push_back(
        100.0 *
        bd.op_energy_j[static_cast<std::size_t>(OpClass::kDramAccess)] /
        bd.data_j());
    l2_data_shares.push_back(
        100.0 * bd.op_energy_j[static_cast<std::size_t>(OpClass::kL2Access)] /
        bd.data_j());
  }
  t.print(std::cout);

  std::cout << "\nAcross inputs: integer share of computation energy "
            << util::Table::num(util::mean(int_comp_shares), 1)
            << "% (paper: ~23%; see EXPERIMENTS.md on the denominator); "
               "DRAM share of data-access energy "
            << util::Table::num(util::mean(dram_data_shares), 1)
            << "% (paper: up to ~50%); L2 share "
            << util::Table::num(util::mean(l2_data_shares), 1)
            << "% (paper: 30-40%).\nSeries exported to fig6_energy.csv.\n";
  return 0;
}
