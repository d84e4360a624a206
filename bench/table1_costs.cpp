// Reproduces Table I: the 16 frequency/voltage settings (8 training "T" +
// 8 validation "V") with the per-operation energy costs and constant power
// derived from the NNLS fit of the microbenchmark campaign.
//
// Paper reference values at 852/924 MHz: SP 29.0, DP 139.1, Integer 60.0,
// SM 35.4, L2 90.2, Mem 377.0 pJ; constant power 6.8 W.
#include <iostream>

#include "bench/common.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;
  const auto ctx = model::TuneContext::tegra_default();
  const model::EnergyModel& m = ctx->model;

  std::cout << "Table I: frequency/voltage settings and derived energy "
               "costs (fitted by NNLS on "
            << ctx->samples(hw::SettingRole::kTrain).size()
            << " training samples)\n\n";

  util::Table t({"Type", "Core freq. (MHz)", "Core volt. (mV)",
                 "Mem freq. (MHz)", "Mem volt. (mV)", "SP (pJ)", "DP (pJ)",
                 "Integer (pJ)", "SM (pJ)", "L2 (pJ)", "Mem (pJ)",
                 "Const. power (W)"});
  for (const auto& [role, s] : hw::table1_settings()) {
    const auto pj = [&](hw::OpClass op) {
      return util::Table::num(m.op_energy_j(op, s) * 1e12, 1);
    };
    t.add_row({role == hw::SettingRole::kTrain ? "T" : "V",
               util::Table::num(s.core.freq_mhz, 0),
               util::Table::num(s.core.volt_mv, 0),
               util::Table::num(s.mem.freq_mhz, 0),
               util::Table::num(s.mem.volt_mv, 0),
               pj(hw::OpClass::kSpFlop), pj(hw::OpClass::kDpFlop),
               pj(hw::OpClass::kIntOp), pj(hw::OpClass::kSmAccess),
               pj(hw::OpClass::kL2Access), pj(hw::OpClass::kDramAccess),
               util::Table::num(m.constant_power_w(s), 1)});
  }
  t.print(std::cout);

  std::cout << "\nFitted model constants:\n";
  static const char* names[] = {"c0_sp", "c0_dp", "c0_int",
                                "c0_sm", "c0_l2", "c0_dram"};
  for (std::size_t i = 0; i < model::kNumCoeffs; ++i)
    std::cout << "  " << names[i] << " = " << m.c0[i] * 1e12 << " pJ/V^2\n";
  std::cout << "  c1_proc = " << m.c1_proc << " W/V\n"
            << "  c1_mem  = " << m.c1_mem << " W/V\n"
            << "  P_misc  = " << m.p_misc << " W\n";
  std::cout << "\nPaper reference at 852/924: SP 29.0, DP 139.1, Int 60.0, "
               "SM 35.4, L2 90.2, Mem 377.0 pJ; pi0 6.8 W\n";
  return 0;
}
