// Per-phase DVFS autotuning of the KIFMM proxy (paper Section V, closed
// loop). Fits the energy model from the microbenchmark campaign, models the
// CUDA execution of one KIFMM input (the nvprof substitute), and then picks
// clocks *per phase* with the chain scheduler (core/schedule):
//
//   * uniform: the single best setting for the whole run (the paper's
//     Table V strategy),
//   * per-phase: one setting per UP/U/V/W/X/DOWN phase under a DVFS
//     transition-cost model,
//   * race-to-halt: max clocks everywhere.
//
// Each strategy is validated against the simulator's ground truth and a
// noisy PowerMon-measured run of the actual schedule (hw::Soc::run_sequence).
// Also emits the energy-vs-time Pareto frontier and a transition-cost sweep
// showing the schedule collapsing onto the uniform pick as switching gets
// expensive. Writes everything to fig_fmm_autotune.csv.
//
//   fmm_autotune [n_points] [max_points_per_box] [csv_path]
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/kernel.hpp"
#include "fmm/pointgen.hpp"
#include "hw/soc.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace eroof;

std::string schedule_string(const model::PhaseGridPrediction& pred,
                            const model::PhaseSchedule& s) {
  std::ostringstream os;
  for (std::size_t p = 0; p < s.pick.size(); ++p) {
    if (p) os << ' ';
    os << pred.phase_names[p] << ':' << pred.grid[s.pick[p]].label();
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 32768;
  const std::uint32_t q = argc > 2 ? static_cast<std::uint32_t>(
                                         std::stoul(argv[2]))
                                   : 64;
  const std::string csv_path = argc > 3 ? argv[3] : "fig_fmm_autotune.csv";

  // 1. Fit the energy model from the paper campaign (training half).
  const auto ctx = model::TuneContext::tegra_default();
  const hw::Soc& soc = ctx->soc;
  const model::EnergyModel& energy_model = ctx->model;
  const hw::PowerMon meter;
  const util::RngStream root(42);

  // 2. Model the CUDA execution of the KIFMM input (per-phase workloads).
  static const fmm::LaplaceKernel kernel;
  util::Rng point_rng(1000 + n + q);
  const auto pts = fmm::uniform_cube(n, point_rng);
  fmm::FmmEvaluator ev(
      kernel, pts,
      {.max_points_per_box = q,
       .uniform_depth = fmm::Octree::uniform_depth_for(n, q)},
      fmm::FmmConfig{.p = 4});
  const auto phases = fmm::profile_gpu_execution(ev).workloads();

  const auto& grid = ctx->grid;
  const auto pred =
      model::predict_phase_grid(energy_model, soc, phases, grid);

  std::cout << "Per-phase DVFS autotuning of the KIFMM proxy (N=" << n
            << ", q=" << q << ", " << grid.size() << " settings)\n\n";

  util::CsvWriter csv(csv_path,
                      {"strategy", "time_weight_w", "schedule", "switches",
                       "pred_time_s", "pred_energy_j", "true_time_s",
                       "true_energy_j", "meas_energy_j"});

  // 3. Strategy comparison, with and without transition costs.
  const hw::DvfsTransitionModel no_cost{};
  const hw::DvfsTransitionModel& realistic = ctx->transitions;

  const std::pair<const char*, hw::DvfsTransitionModel> configs[] = {
      {"zero-cost", no_cost}, {"100us+50uJ", realistic}};
  for (const auto& [tag, tm] : configs) {
    const auto cmp =
        model::compare_strategies(energy_model, soc, phases, grid, tm);
    std::cout << "Strategy comparison (" << tag << " transitions)\n";
    util::Table t({"Strategy", "Schedule", "Switches", "Pred (J)", "True (J)",
                   "Measured (J)", "True time (ms)", "vs uniform %"},
                  {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                   util::Align::kRight, util::Align::kRight,
                   util::Align::kRight, util::Align::kRight,
                   util::Align::kRight});
    const double e_uni = cmp.uniform_true.energy_j;
    const struct Row {
      const char* name;
      const model::PhaseSchedule* s;
      const model::ScheduleGroundTruth* g;
    } rows[] = {{"uniform best", &cmp.uniform, &cmp.uniform_true},
                {"per-phase", &cmp.per_phase, &cmp.per_phase_true},
                {"race-to-halt", &cmp.race, &cmp.race_true}};
    for (const Row& r : rows) {
      std::vector<hw::DvfsSetting> settings;
      for (const std::size_t pick : r.s->pick) settings.push_back(grid[pick]);
      const auto meas = soc.run_sequence(phases, settings, tm, meter,
                                         root.fork(tag).fork(r.name));
      const std::string sched =
          r.s->switches == 0 && !r.s->pick.empty()
              ? grid[r.s->pick.front()].label() + " (all phases)"
              : schedule_string(pred, *r.s);
      t.add_row({r.name, sched, std::to_string(r.s->switches),
                 util::Table::num(r.s->pred_energy_j, 4),
                 util::Table::num(r.g->energy_j, 4),
                 util::Table::num(meas.energy_j, 4),
                 util::Table::num(r.g->time_s * 1e3, 3),
                 util::Table::num(100.0 * (r.g->energy_j - e_uni) / e_uni,
                                  2)});
      std::ostringstream strategy;
      strategy << r.name << " (" << tag << ")";
      csv.add_row(std::vector<std::string>{
          strategy.str(), "0", sched, std::to_string(r.s->switches),
          std::to_string(r.s->pred_time_s),
          std::to_string(r.s->pred_energy_j), std::to_string(r.g->time_s),
          std::to_string(r.g->energy_j), std::to_string(meas.energy_j)});
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // 4. Energy-vs-time Pareto frontier (realistic transitions).
  const std::vector<double> weights = {0,   0.25, 0.5, 1.0,  2.0,
                                       4.0, 8.0,  16., 32.0, 64.0};
  const auto frontier = model::pareto_frontier(pred, realistic, weights);
  std::cout << "Energy-vs-time Pareto frontier (time weight in W)\n";
  util::Table pf({"lambda (W)", "Pred time (ms)", "Pred energy (J)",
                  "True energy (J)", "Schedule"},
                 {util::Align::kRight, util::Align::kRight, util::Align::kRight,
                  util::Align::kRight, util::Align::kLeft});
  for (const auto& pt : frontier) {
    const auto g =
        model::true_schedule_cost(soc, phases, pred, pt.schedule, realistic);
    pf.add_row({util::Table::num(pt.time_weight, 2),
                util::Table::num(pt.schedule.pred_time_s * 1e3, 3),
                util::Table::num(pt.schedule.pred_energy_j, 4),
                util::Table::num(g.energy_j, 4),
                schedule_string(pred, pt.schedule)});
    std::ostringstream strategy;
    strategy << "pareto";
    csv.add_row(std::vector<std::string>{
        strategy.str(), std::to_string(pt.time_weight),
        schedule_string(pred, pt.schedule),
        std::to_string(pt.schedule.switches),
        std::to_string(pt.schedule.pred_time_s),
        std::to_string(pt.schedule.pred_energy_j), std::to_string(g.time_s),
        std::to_string(g.energy_j), ""});
  }
  pf.print(std::cout);

  // 5. Transition-cost sweep: the schedule must collapse onto the uniform
  // pick as switching gets expensive.
  std::cout << "\nTransition-cost sweep (latency 100 us)\n";
  util::Table sw({"Switch energy (J)", "Switches", "Pred energy (J)",
                  "True energy (J)"},
                 {util::Align::kRight, util::Align::kRight, util::Align::kRight,
                  util::Align::kRight});
  for (const double ej : {0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0}) {
    const hw::DvfsTransitionModel tm{100e-6, ej};
    const auto s = model::schedule_phases(pred, tm);
    const auto g = model::true_schedule_cost(soc, phases, pred, s, tm);
    sw.add_row({util::Table::num(ej, 4), std::to_string(s.switches),
                util::Table::num(s.pred_energy_j, 4),
                util::Table::num(g.energy_j, 4)});
    std::ostringstream strategy;
    strategy << "sweep_E" << ej;
    csv.add_row(std::vector<std::string>{
        strategy.str(), "0", schedule_string(pred, s),
        std::to_string(s.switches), std::to_string(s.pred_time_s),
        std::to_string(s.pred_energy_j), std::to_string(g.time_s),
        std::to_string(g.energy_j), ""});
  }
  sw.print(std::cout);

  std::cout << "\nReading: the per-phase schedule floors the idle domain's "
               "clock per phase -- U runs with memory floored, V with the "
               "core lowered -- trimming the voltage-dependent constant "
               "power (eq. 8) that the uniform pick pays everywhere. "
               "Race-to-halt burns both voltages for the whole run. Wrote "
            << csv_path << ".\n";
  return 0;
}
