// Where does the FMM spend its energy? (the paper's Section IV workflow)
//
// Profiles the modeled GPU execution of an FMM run, prices every phase with
// the fitted energy model, and prints the per-phase time/energy breakdown
// plus the instruction / data-access / constant-power decomposition -- the
// kind of report a performance analyst would use to find energy bottlenecks.
// With `--trace=out.json` (and/or `--trace-csv=prefix`) the whole run is
// recorded to a chrome://tracing file: the six FMM phase spans with their
// work tallies, the campaign cells, the fitted-model residuals, and the
// PowerMon sample stream.
#include <cstdlib>
#include <iostream>

#include "core/fit.hpp"
#include "core/profile.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/pointgen.hpp"
#include "trace/export.hpp"
#include "ubench/campaign.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace eroof;
  trace::CliTracer tracer(argc, argv);
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 65536;
  const std::uint32_t q = argc > 2
                              ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                              : 128;

  // Fit the platform model once.
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon meter;
  const auto campaign = ub::paper_campaign(soc, meter, util::RngStream(42));
  std::vector<model::FitSample> train;
  for (const auto& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      train.push_back(model::to_fit_sample(s.meas));
  const auto m = model::fit_energy_model(train).model;

  // Build and profile the FMM.
  const fmm::LaplaceKernel kernel;
  util::Rng rng(42);
  const auto pts = fmm::uniform_cube(n, rng);
  fmm::FmmEvaluator ev(
      kernel, pts,
      {.max_points_per_box = q,
       .uniform_depth = fmm::Octree::uniform_depth_for(n, q)},
      fmm::FmmConfig{.p = 4});
  if (tracer.enabled()) {
    // Run the evaluation for real so the trace holds the six phase spans
    // with their work tallies, not just the modeled GPU profile.
    const std::vector<double> dens(n, 1.0);
    ev.evaluate(dens);
  }
  const auto prof = fmm::profile_gpu_execution(ev);

  const auto setting = hw::setting(852, 924);
  std::cout << "FMM energy profile: N = " << n << ", Q = " << q
            << ", at " << setting.label() << " MHz\n\n";

  util::Table t({"Phase", "Time (ms)", "Energy (J)", "Compute (J)",
                 "Data (J)", "Constant (J)", "Util"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  double total_t = 0;
  double total_e = 0;
  for (const auto& ph : prof.phases) {
    const double time = soc.execution_time(ph.workload, setting);
    const auto bd = model::breakdown(m, ph.workload.ops, setting, time);
    total_t += time;
    total_e += bd.total_j();
    t.add_row({ph.name, util::Table::num(time * 1e3, 2),
               util::Table::num(bd.total_j(), 3),
               util::Table::num(bd.computation_j(), 3),
               util::Table::num(bd.data_j(), 3),
               util::Table::num(bd.constant_j, 3),
               util::Table::num(ph.workload.compute_utilization, 2)});
  }
  t.print(std::cout);
  std::cout << "\ntotal: " << total_t * 1e3 << " ms, " << total_e << " J ("
            << total_e / total_t << " W average)\n";

  const auto total = prof.total("fmm");
  const auto bd = model::breakdown(m, total.ops, setting, total_t);
  std::cout << "decomposition: computation "
            << 100.0 * bd.computation_j() / bd.total_j() << "%, data "
            << 100.0 * bd.data_j() / bd.total_j() << "%, constant power "
            << 100.0 * bd.constant_j / bd.total_j()
            << "%\n=> like the paper's Fig. 7: constant power dominates, so "
               "the fastest setting is also the most energy-efficient for "
               "this kernel.\n";
  return 0;
}
