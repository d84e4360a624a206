// The paper's closing what-if (Section VI): should prefetching be on?
//
// Prefetching loads some data that is never used. With the fitted
// per-operation energy costs we can price that wasted DRAM traffic --
// and weigh it against the execution-time (and hence constant-power-energy)
// penalty of turning prefetching off. The model answers without requiring
// high system utilization.
#include <iostream>

#include "core/schedule.hpp"
#include "hw/soc.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;

  const auto ctx = model::TuneContext::tegra_default();
  const hw::Soc& soc = ctx->soc;
  const model::EnergyModel& m = ctx->model;

  const auto setting = hw::setting(852, 924);

  // A pointer-chasing workload: 256M useful DRAM words. With prefetching
  // ON, the prefetcher fetches extra lines, only a fraction of which are
  // used, but hides latency (higher achieved bandwidth). With prefetching
  // OFF no bandwidth is wasted but effective memory utilization drops.
  const double useful_words = 256e6;

  std::cout << "Prefetching what-if at " << setting.label()
            << " MHz, 256M useful DRAM words\n\n";
  util::Table t({"Used-prefetch ratio", "Pref ON (J)", "Pref OFF (J)",
                 "Verdict"},
                {util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kLeft});

  for (const double used_ratio : {0.9, 0.7, 0.5, 0.3, 0.1}) {
    // ON: traffic inflated by unused prefetches; latency well hidden.
    hw::Workload on;
    on.name = "prefetch_on";
    on.ops[hw::OpClass::kDramAccess] = useful_words / used_ratio;
    on.ops[hw::OpClass::kIntOp] = 0.1 * useful_words;
    on.memory_utilization = 0.9;
    const double t_on = soc.execution_time(on, setting);
    const double e_on = m.predict_energy_j(on.ops, setting, t_on);

    // OFF: only useful traffic, but demand misses expose latency.
    hw::Workload off = on;
    off.name = "prefetch_off";
    off.ops[hw::OpClass::kDramAccess] = useful_words;
    off.memory_utilization = 0.55;
    const double t_off = soc.execution_time(off, setting);
    const double e_off = m.predict_energy_j(off.ops, setting, t_off);

    t.add_row({util::Table::num(used_ratio, 2), util::Table::num(e_on, 2),
               util::Table::num(e_off, 2),
               e_on < e_off ? "keep prefetching"
                            : "turn prefetching off"});
  }
  t.print(std::cout);
  std::cout << "\nThe crossover is where the energy of unused prefetched "
               "words outweighs the constant-power cost of the slower "
               "unprefetched run -- exactly the trade-off the paper's "
               "conclusion sketches.\n";
  return 0;
}
