// Ablation / reproduction of Section III-B's tuning claim: "By changing the
// input parameter Q, we can change the balance of workload between [the U
// and V phases] so that the FMM's overall arithmetic intensity can be
// tailored to a particular platform."
//
// Sweeps Q at fixed N and reports, per Q: the U/V split of modeled GPU
// time, the run's overall arithmetic intensity, and the total energy at the
// top DVFS setting -- exposing the energy-optimal Q.
#include <iostream>

#include "bench/common.hpp"
#include "core/profile.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace eroof;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 65536;
  const auto ctx = model::TuneContext::tegra_default();
  const auto s1 = hw::setting(852, 924);

  std::cout << "Q sweep at N = " << n
            << ", 852/924 MHz: the U/V balance knob (paper Section III-B)\n\n";
  util::Table t({"Q", "U time (ms)", "V time (ms)", "Total (ms)",
                 "Flops/DRAM word", "Energy (J)"},
                {util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  util::CsvWriter csv("ablation_q_sweep.csv",
                      {"q", "u_ms", "v_ms", "total_ms", "intensity",
                       "energy_j"});

  double best_e = 1e300;
  std::uint32_t best_q = 0;
  for (const std::uint32_t q : {32u, 64u, 128u, 256u, 512u, 1024u}) {
    const auto prof = bench::profile_fmm_input({"sweep", n, q});
    double u_ms = 0;
    double v_ms = 0;
    double total_ms = 0;
    double total_e = 0;
    hw::OpCounts ops;
    for (const auto& ph : prof.phases) {
      const double ms = ctx->soc.execution_time(ph.workload, s1) * 1e3;
      total_ms += ms;
      if (ph.name == "U") u_ms = ms;
      if (ph.name == "V") v_ms = ms;
      ops += ph.workload.ops;
    }
    const auto total = prof.total("q_sweep");
    const auto bd =
        model::breakdown(ctx->model, total.ops, s1, total_ms / 1e3);
    total_e = bd.total_j();
    const double intensity =
        (ops[hw::OpClass::kSpFlop] + ops[hw::OpClass::kDpFlop]) /
        ops[hw::OpClass::kDramAccess];
    t.add_row({std::to_string(q), util::Table::num(u_ms, 2),
               util::Table::num(v_ms, 2), util::Table::num(total_ms, 2),
               util::Table::num(intensity, 1), util::Table::num(total_e, 3)});
    csv.add_row({std::to_string(q), util::Table::num(u_ms, 4),
                 util::Table::num(v_ms, 4), util::Table::num(total_ms, 4),
                 util::Table::num(intensity, 4),
                 util::Table::num(total_e, 6)});
    if (total_e < best_e) {
      best_e = total_e;
      best_q = q;
    }
  }
  t.print(std::cout);
  std::cout << "\nEnergy-optimal Q for this N and platform: " << best_q
            << " (" << util::Table::num(best_e, 3)
            << " J). Small Q shifts work into the memory-bound V phase, "
               "large Q into the O(Q^2) compute-bound U phase; the optimum "
               "balances the two rooflines.\nSeries exported to "
               "ablation_q_sweep.csv.\n";
  return 0;
}
