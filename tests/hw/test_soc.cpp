#include "hw/soc.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace eroof::hw {
namespace {

Workload compute_workload(double sp = 1e9) {
  Workload w;
  w.name = "test_compute";
  w.ops[OpClass::kSpFlop] = sp;
  w.ops[OpClass::kDramAccess] = 1e6;
  return w;
}

Workload memory_workload(double words = 1e9) {
  Workload w;
  w.name = "test_memory";
  w.ops[OpClass::kDramAccess] = words;
  return w;
}

TEST(Soc, OpEnergyScalesWithVoltageSquared) {
  const Soc soc = Soc::tegra_k1();
  const auto hi = setting(852, 924);
  const auto lo = setting(396, 924);
  const double e_hi = soc.true_op_energy_j(OpClass::kSpFlop, hi);
  const double e_lo = soc.true_op_energy_j(OpClass::kSpFlop, lo);
  const double v_ratio2 = (1.030 * 1.030) / (0.770 * 0.770);
  // Within the small frequency-sensitivity nonideality.
  EXPECT_NEAR(e_hi / e_lo, v_ratio2, 0.1 * v_ratio2);
}

TEST(Soc, DramEnergyFollowsMemoryVoltage) {
  const Soc soc = Soc::tegra_k1();
  const auto a = setting(852, 924);
  const auto b = setting(852, 204);
  // Same core setting: DRAM cost differs, SP cost identical.
  EXPECT_GT(soc.true_op_energy_j(OpClass::kDramAccess, a),
            soc.true_op_energy_j(OpClass::kDramAccess, b));
  EXPECT_DOUBLE_EQ(soc.true_op_energy_j(OpClass::kSpFlop, a),
                   soc.true_op_energy_j(OpClass::kSpFlop, b));
}

TEST(Soc, CostsCalibratedToPaperTable1) {
  const Soc soc = Soc::tegra_k1();
  const auto s = setting(852, 924);
  // Ground truth lands near Table I's fitted costs (29.0 SP, 139.1 DP,
  // 60.0 int, 35.4 SM, 90.2 L2, 377.0 Mem pJ; pi0 = 6.8 W). Tolerance
  // covers the deliberate nonidealities.
  EXPECT_NEAR(soc.true_op_energy_j(OpClass::kSpFlop, s) * 1e12, 29.0, 3.0);
  EXPECT_NEAR(soc.true_op_energy_j(OpClass::kDpFlop, s) * 1e12, 139.1, 14.0);
  EXPECT_NEAR(soc.true_op_energy_j(OpClass::kIntOp, s) * 1e12, 60.0, 6.0);
  EXPECT_NEAR(soc.true_op_energy_j(OpClass::kSmAccess, s) * 1e12, 35.4, 4.0);
  EXPECT_NEAR(soc.true_op_energy_j(OpClass::kL2Access, s) * 1e12, 90.2, 9.0);
  EXPECT_NEAR(soc.true_op_energy_j(OpClass::kDramAccess, s) * 1e12, 377.0,
              38.0);
  EXPECT_NEAR(soc.true_constant_power_w(s), 6.8, 0.7);
}

TEST(Soc, ConstantPowerMonotoneInVoltage) {
  const Soc soc = Soc::tegra_k1();
  // Strictly higher (core V, mem V) pairs must not lower constant power
  // beyond the small per-point regulator deviation.
  EXPECT_GT(soc.true_constant_power_w(setting(852, 924)),
            soc.true_constant_power_w(setting(72, 68)));
}

TEST(Soc, ComputeBoundTimeScalesInverselyWithCoreFreq) {
  const Soc soc = Soc::tegra_k1();
  const Workload w = compute_workload();
  const double t_hi = soc.execution_time(w, setting(852, 924));
  const double t_lo = soc.execution_time(w, setting(396, 924));
  EXPECT_NEAR(t_lo / t_hi, 852.0 / 396.0, 0.05 * 852.0 / 396.0);
}

TEST(Soc, MemoryBoundTimeScalesInverselyWithMemFreq) {
  const Soc soc = Soc::tegra_k1();
  const Workload w = memory_workload();
  const double t_hi = soc.execution_time(w, setting(852, 924));
  const double t_lo = soc.execution_time(w, setting(852, 204));
  EXPECT_NEAR(t_lo / t_hi, 924.0 / 204.0, 0.05 * 924.0 / 204.0);
}

TEST(Soc, MemoryBoundTimeInsensitiveToCoreFreq) {
  const Soc soc = Soc::tegra_k1();
  const Workload w = memory_workload();
  EXPECT_DOUBLE_EQ(soc.execution_time(w, setting(852, 528)),
                   soc.execution_time(w, setting(180, 528)));
}

TEST(Soc, RooflineIsMaxOfComputeAndMemoryTime) {
  const Soc soc = Soc::tegra_k1();
  Workload both;
  both.name = "both";
  both.ops[OpClass::kSpFlop] = 1e9;
  both.ops[OpClass::kDramAccess] = 1e9;
  Workload only_flops = both;
  only_flops.ops[OpClass::kDramAccess] = 0;
  Workload only_mem = both;
  only_mem.ops[OpClass::kSpFlop] = 0;
  const auto s = setting(852, 924);
  const double t_both = soc.execution_time(both, s);
  const double t_max = std::max(soc.execution_time(only_flops, s),
                                soc.execution_time(only_mem, s));
  EXPECT_NEAR(t_both, t_max, 1e-12);
}

TEST(Soc, LowerUtilizationStretchesTime) {
  const Soc soc = Soc::tegra_k1();
  Workload w = compute_workload();
  const auto s = setting(852, 924);
  const double t_full = soc.execution_time(w, s);
  w.compute_utilization = 0.25;
  const double t_quarter = soc.execution_time(w, s);
  EXPECT_NEAR(t_quarter / t_full, 4.0, 0.1);
}

TEST(Soc, UtilizationOutOfRangeThrows) {
  const Soc soc = Soc::tegra_k1();
  Workload w = compute_workload();
  w.compute_utilization = 0.0;
  EXPECT_THROW(soc.execution_time(w, setting(852, 924)),
               util::ContractError);
  w.compute_utilization = 1.5;
  EXPECT_THROW(soc.execution_time(w, setting(852, 924)),
               util::ContractError);
}

TEST(Soc, MeasuredEnergyTracksTrueEnergy) {
  const Soc soc = Soc::tegra_k1();
  const PowerMon pm;
  const Workload w = compute_workload(5e9);
  const auto s = setting(852, 924);
  const Measurement m = soc.run(w, s, pm, util::RngStream(1));
  const double e_true = soc.true_energy_j(w, s, m.time_s);
  EXPECT_NEAR(m.energy_j, e_true, 0.08 * e_true);
}

TEST(Soc, MeasurementCarriesWorkloadIdentity) {
  const Soc soc = Soc::tegra_k1();
  const PowerMon pm;
  const Workload w = memory_workload();
  const Measurement m = soc.run(w, setting(540, 528), pm, util::RngStream(2));
  EXPECT_EQ(m.workload, "test_memory");
  EXPECT_EQ(m.setting.core.freq_mhz, 540);
  EXPECT_EQ(m.ops[OpClass::kDramAccess], w.ops[OpClass::kDramAccess]);
  EXPECT_GT(m.avg_power_w, 0);
}

TEST(Soc, SameWorkloadSameActivityFactorAcrossSettings) {
  // The per-workload activity nonideality must be systematic: the same
  // workload's dynamic energy at two settings must differ only by the
  // physical V/f scaling, not by a fresh random draw.
  const Soc soc = Soc::tegra_k1();
  Workload w = compute_workload(2e10);
  const auto s = setting(852, 68);  // compute bound, tiny DRAM share
  const double t = soc.execution_time(w, s);
  const double e1 = soc.true_energy_j(w, s, t);
  const double e2 = soc.true_energy_j(w, s, t);
  EXPECT_DOUBLE_EQ(e1, e2);
}

TEST(Soc, KernelOverheadBoundsShortRuns) {
  const Soc soc = Soc::tegra_k1();
  Workload w;
  w.name = "tiny";
  w.ops[OpClass::kSpFlop] = 1.0;
  EXPECT_GE(soc.execution_time(w, setting(852, 924)),
            soc.rates().kernel_overhead_s);
}

}  // namespace
}  // namespace eroof::hw
