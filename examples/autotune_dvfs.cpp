// DVFS autotuning across workload intensities (the paper's Section II-E).
//
// Sweeps a single-precision kernel from strongly memory-bound to strongly
// compute-bound and shows, per intensity, which (core, memory) clock pair
// the fitted model picks vs what race-to-halt picks -- and what each costs
// relative to the measured optimum.
#include <iostream>
#include <sstream>

#include "core/autotune.hpp"
#include "core/schedule.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;

  // The shared tuning context: the paper campaign (seed 42) and the model
  // fitted on its training half.
  const auto ctx = model::TuneContext::tegra_default();
  const hw::PowerMon meter;
  // Stream-split RNG root: every measurement draws from a stream keyed by
  // its identity, so the printed table is bitwise-identical across
  // OMP_NUM_THREADS and grid iteration order.
  const util::RngStream root(42);

  std::cout << "Autotuning a SP kernel across arithmetic intensities "
               "(flops per DRAM word)\n\n";
  util::Table t({"Intensity", "Model pick", "Oracle pick", "Best measured",
                 "Model lost %", "Oracle lost %"},
                {util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});

  for (const double intensity : {0.25, 1.0, 4.0, 16.0, 64.0, 256.0}) {
    hw::Workload w;
    // Default ostream formatting ("tune_I0.25"), matching the suite's
    // point_name convention -- std::to_string would emit "tune_I0.250000".
    std::ostringstream name;
    name << "tune_I" << intensity;
    w.name = name.str();
    w.ops[hw::OpClass::kDramAccess] = 64e6;
    w.ops[hw::OpClass::kSpFlop] = intensity * 64e6;
    w.ops[hw::OpClass::kIntOp] = 0.05 * 64e6;
    w.compute_utilization = 0.95;
    w.memory_utilization = 0.9;

    const auto ms = model::measure_grid(ctx->soc, w, ctx->grid, meter, root);
    const auto out = model::autotune(ctx->model, ms);
    t.add_row({util::Table::num(intensity, 2),
               ms[out.model_idx].setting.label(),
               ms[out.oracle_idx].setting.label(),
               ms[out.best_idx].setting.label(),
               util::Table::num(out.model_lost_pct, 2),
               util::Table::num(out.oracle_lost_pct, 2)});
  }
  t.print(std::cout);
  std::cout << "\nReading: memory-bound points want a *low* core clock "
               "(the oracle wastes core voltage); compute-bound points want "
               "a low memory clock. Race-to-halt only gets it right when "
               "both resources are saturated.\n";
  return 0;
}
