// Extension: per-phase DVFS scheduling of the FMM over the Table IV inputs.
//
// The paper's phase analysis (Section IV) shows U is compute-bound and V is
// memory-bound -- which invites scheduling a different (f_core, f_mem) pair
// per phase instead of one global setting. For every input F1..F8 this bench
// runs the exact chain DP of core/schedule (model::compare_strategies) with a
// relock stall per transition, and compares on true (simulator ground-truth)
// energy:
//
//   (a) best uniform setting (model-chosen),
//   (b) per-phase schedule,
//   (c) race-to-halt (max clocks everywhere).
//
// Constant power dominates the FMM's energy, but pi_0 itself is
// voltage-dependent (eq. 8) -- so phases that leave one domain idle can still
// save by flooring it. examples/fmm_autotune takes one input further: Pareto
// frontier, transition-cost sweep and measured runs of each schedule.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "core/schedule.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;
  const auto platform = bench::make_platform();
  const auto grid = hw::full_grid();
  const hw::DvfsTransitionModel transitions{.latency_s = 100e-6};

  std::cout << "Extension: per-phase DVFS scheduling of the FMM (true "
               "energies from the platform ground truth; "
            << transitions.latency_s * 1e6 << " us per frequency change)\n\n";
  util::Table t({"Input", "Uniform best (J)", "Per-phase (J)", "Saving %",
                 "Race-to-halt (J)", "Per-phase schedule (U | V)"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kLeft});

  std::vector<double> savings;
  for (const auto& in : bench::kFmmInputs) {
    const auto prof = bench::profile_fmm_input(in);
    std::vector<hw::Workload> phases;
    std::string uv;
    for (const auto& ph : prof.phases) phases.push_back(ph.workload);
    const auto cmp = model::compare_strategies(platform.model, platform.soc,
                                               phases, grid, transitions);
    for (std::size_t i = 0; i < prof.phases.size(); ++i)
      if (prof.phases[i].name == "U" || prof.phases[i].name == "V")
        uv += (uv.empty() ? "" : " | ") + grid[cmp.per_phase.pick[i]].label();

    const double e_uniform = cmp.uniform_true.energy_j;
    const double e_phase = cmp.per_phase_true.energy_j;
    savings.push_back(100.0 * (e_uniform - e_phase) / e_uniform);
    t.add_row({in.id, util::Table::num(e_uniform, 3),
               util::Table::num(e_phase, 3),
               util::Table::num(savings.back(), 2),
               util::Table::num(cmp.race_true.energy_j, 3), uv});
  }
  t.print(std::cout);

  const auto [lo, hi] = std::minmax_element(savings.begin(), savings.end());
  std::cout << "\nReading: per-phase scheduling drops the *idle* domain's "
               "voltage -- U runs with the memory clock floored, V with the "
               "core clock lowered -- which trims the voltage-dependent "
               "part of the constant power itself (eq. 8). Against the best "
               "uniform setting that is worth "
            << util::Table::num(*lo, 1) << " .. " << util::Table::num(*hi, 1)
            << "% here even though constant power dominates total energy: a "
               "follow-on the paper's single-setting analysis (Section IV-C) "
               "leaves on the table.\n";
  return 0;
}
