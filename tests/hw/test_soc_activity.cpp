// The nonideality contracts of the simulated silicon: which deviations are
// systematic (per workload, per setting) and which are run-to-run noise.
#include <gtest/gtest.h>

#include "hw/soc.hpp"

namespace eroof::hw {
namespace {

Workload named(const std::string& name) {
  Workload w;
  w.name = name;
  w.ops[OpClass::kSpFlop] = 1e10;
  w.ops[OpClass::kDramAccess] = 1e6;
  return w;
}

TEST(SocActivity, DifferentWorkloadNamesDrawDifferentActivity) {
  const Soc soc = Soc::tegra_k1();
  const auto s = setting(852, 68);
  const Workload a = named("kernel_a");
  const Workload b = named("kernel_b");
  const double t = soc.execution_time(a, s);
  // Identical counts, identical time: any energy difference is the
  // per-workload activity factor.
  EXPECT_NE(soc.true_energy_j(a, s, t), soc.true_energy_j(b, s, t));
}

TEST(SocActivity, ActivityIsStableAcrossSocInstances) {
  // The factor is keyed on the name, not on instance state: two separately
  // constructed simulators agree exactly.
  const Soc soc1 = Soc::tegra_k1();
  const Soc soc2 = Soc::tegra_k1();
  const auto s = setting(648, 528);
  const Workload w = named("stable_kernel");
  const double t = soc1.execution_time(w, s);
  EXPECT_DOUBLE_EQ(soc1.true_energy_j(w, s, t),
                   soc2.true_energy_j(w, s, t));
}

TEST(SocActivity, ActivityDeviationIsBounded) {
  // With sigma ~0.16 the per-workload deviation should essentially never
  // exceed ~4 sigma; the energy ratio between two workloads with equal
  // counts stays within a sane band.
  const Soc soc = Soc::tegra_k1();
  const auto s = setting(852, 68);
  double lo = 1e300;
  double hi = 0;
  for (int i = 0; i < 50; ++i) {
    const Workload w = named("k" + std::to_string(i));
    const double t = soc.execution_time(w, s);
    const double e = soc.true_energy_j(w, s, t);
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  EXPECT_LT(hi / lo, 2.5);
  EXPECT_GT(hi / lo, 1.02);  // and they do vary
}

TEST(SocActivity, MeasuredRunsVaryButTightly) {
  const Soc soc = Soc::tegra_k1();
  const PowerMon pm;
  const util::RngStream root(5);
  const Workload w = named("noisy_kernel");
  const auto s = setting(540, 528);
  const auto m1 = soc.run(w, s, pm, root.fork(1));
  const auto m2 = soc.run(w, s, pm, root.fork(2));
  EXPECT_NE(m1.energy_j, m2.energy_j);  // real noise
  EXPECT_NEAR(m1.energy_j, m2.energy_j, 0.1 * m1.energy_j);  // but small
}

TEST(SocActivity, ConstantPowerDeviationIsPerSetting) {
  // The regulator deviation is keyed on the setting: querying twice gives
  // the same value (it is systematic, not noise).
  const Soc soc = Soc::tegra_k1();
  for (const auto& s : full_grid())
    EXPECT_DOUBLE_EQ(soc.true_constant_power_w(s),
                     soc.true_constant_power_w(s));
}

}  // namespace
}  // namespace eroof::hw
