#include "core/profile.hpp"

#include "util/require.hpp"

namespace eroof::model {

double EnergyBreakdown::computation_j() const {
  using hw::OpClass;
  return op_energy_j[static_cast<std::size_t>(OpClass::kSpFlop)] +
         op_energy_j[static_cast<std::size_t>(OpClass::kDpFlop)] +
         op_energy_j[static_cast<std::size_t>(OpClass::kIntOp)];
}

double EnergyBreakdown::data_j() const {
  using hw::OpClass;
  return op_energy_j[static_cast<std::size_t>(OpClass::kSmAccess)] +
         op_energy_j[static_cast<std::size_t>(OpClass::kL1Access)] +
         op_energy_j[static_cast<std::size_t>(OpClass::kL2Access)] +
         op_energy_j[static_cast<std::size_t>(OpClass::kDramAccess)];
}

double EnergyBreakdown::total_j() const {
  return computation_j() + data_j() + constant_j;
}

EnergyBreakdown breakdown(const EnergyModel& model, const hw::OpCounts& ops,
                          const hw::DvfsSetting& s, double time_s) {
  EROOF_REQUIRE(time_s > 0);
  EnergyBreakdown b;
  for (std::size_t i = 0; i < hw::kNumOpClasses; ++i) {
    const auto op = static_cast<hw::OpClass>(i);
    b.op_energy_j[i] = ops.n[i] * model.op_energy_j(op, s);
  }
  b.constant_j = model.constant_power_w(s) * time_s;
  return b;
}

}  // namespace eroof::model
