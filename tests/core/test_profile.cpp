#include "core/profile.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace eroof::model {
namespace {

EnergyModel sample_model() {
  EnergyModel m;
  m.c0 = {29e-12, 139e-12, 60e-12, 35e-12, 90e-12, 377e-12};
  m.c1_proc = 2.7;
  m.c1_mem = 3.8;
  m.p_misc = 0.15;
  return m;
}

TEST(Profile, BreakdownPartitionsTotalEnergy) {
  const EnergyModel m = sample_model();
  const auto s = hw::setting(852, 924);
  hw::OpCounts ops;
  ops[hw::OpClass::kSpFlop] = 1e9;
  ops[hw::OpClass::kIntOp] = 2e9;
  ops[hw::OpClass::kSmAccess] = 5e8;
  ops[hw::OpClass::kDramAccess] = 1e8;
  const EnergyBreakdown b = breakdown(m, ops, s, 0.5);
  EXPECT_NEAR(b.total_j(), m.predict_energy_j(ops, s, 0.5), 1e-12);
  EXPECT_NEAR(b.total_j(), b.computation_j() + b.data_j() + b.constant_j,
              1e-12);
}

TEST(Profile, ComputationIncludesExactlyTheInstructionClasses) {
  const EnergyModel m = sample_model();
  const auto s = hw::setting(648, 528);
  hw::OpCounts ops;
  ops[hw::OpClass::kSpFlop] = 1e6;
  ops[hw::OpClass::kDpFlop] = 1e6;
  ops[hw::OpClass::kIntOp] = 1e6;
  const EnergyBreakdown b = breakdown(m, ops, s, 0.1);
  EXPECT_GT(b.computation_j(), 0);
  EXPECT_DOUBLE_EQ(b.data_j(), 0);
}

TEST(Profile, DataIncludesAllMemoryLevels) {
  const EnergyModel m = sample_model();
  const auto s = hw::setting(648, 528);
  hw::OpCounts ops;
  ops[hw::OpClass::kSmAccess] = 1e6;
  ops[hw::OpClass::kL1Access] = 1e6;
  ops[hw::OpClass::kL2Access] = 1e6;
  ops[hw::OpClass::kDramAccess] = 1e6;
  const EnergyBreakdown b = breakdown(m, ops, s, 0.1);
  EXPECT_DOUBLE_EQ(b.computation_j(), 0);
  double sum = 0;
  for (std::size_t i = 3; i < hw::kNumOpClasses; ++i) sum += b.op_energy_j[i];
  EXPECT_NEAR(b.data_j(), sum, 1e-15);
}

TEST(Profile, DramCostsMostPerWord) {
  const EnergyModel m = sample_model();
  const auto s = hw::setting(852, 924);
  hw::OpCounts ops;
  for (std::size_t i = 3; i < hw::kNumOpClasses; ++i) ops.n[i] = 1e6;
  const EnergyBreakdown b = breakdown(m, ops, s, 0.1);
  const auto dram = static_cast<std::size_t>(hw::OpClass::kDramAccess);
  for (std::size_t i = 3; i < dram; ++i)
    EXPECT_GT(b.op_energy_j[dram], b.op_energy_j[i]);
}

TEST(Profile, ZeroTimeThrows) {
  const EnergyModel m = sample_model();
  const hw::OpCounts ops;
  EXPECT_THROW(breakdown(m, ops, hw::setting(852, 924), 0.0),
               util::ContractError);
}

}  // namespace
}  // namespace eroof::model
