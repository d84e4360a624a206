// Extension: per-phase DVFS scheduling of the FMM (paper Section V, closed
// loop).
//
// The paper's phase analysis (Section IV) shows U is compute-bound and V is
// memory-bound -- which invites scheduling a different (f_core, f_mem) pair
// per phase instead of one global setting. For every Table IV input F1..F8
// this bench runs the exact chain DP of core/schedule
// (model::compare_strategies) with a relock stall per transition, and
// compares on true (simulator ground-truth) energy:
//
//   (a) best uniform setting (model-chosen; the paper's Table V strategy),
//   (b) per-phase schedule,
//   (c) race-to-halt (max clocks everywhere).
//
// Constant power dominates the FMM's energy, but pi_0 itself is
// voltage-dependent (eq. 8) -- so phases that leave one domain idle can still
// save by flooring it.
//
// It then takes one input (N=16384, q=64) further: the same comparison with
// zero-cost and with the context's 100us+50uJ transitions, each schedule also
// run through a noisy PowerMon-measured hw::Soc::run_sequence; the
// energy-vs-time Pareto frontier; and a transition-cost sweep showing the
// schedule collapsing onto the uniform pick as switching gets expensive.
// That report is also written to fig_fmm_autotune.csv.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/schedule.hpp"
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

/// Uniform vs per-phase vs race-to-halt over F1..F8 (stall only, no switch
/// energy).
void table_iv_inputs(const model::TuneContext& ctx) {
  const auto& grid = ctx.grid;
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
    const auto phases = prof.workloads();
    std::string uv;
    const auto cmp = model::compare_strategies(ctx.model, ctx.soc, phases,
                                               grid, transitions);
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
}

/// Measured strategy comparison, Pareto frontier and transition-cost sweep
/// of one KIFMM input; also written to `csv_path`.
void one_input_report(const model::TuneContext& ctx,
                      const bench::FmmInput& in, const char* csv_path) {
  const hw::Soc& soc = ctx.soc;
  const auto& grid = ctx.grid;
  const hw::PowerMon meter;
  const util::RngStream root(42);
  const auto phases = bench::profile_fmm_input(in).workloads();
  const auto pred = model::predict_phase_grid(ctx.model, soc, phases, grid);

  std::cout << "Per-phase DVFS autotuning of the KIFMM proxy (N=" << in.n
            << ", q=" << in.q << ", " << grid.size() << " settings)\n\n";

  util::CsvWriter csv(csv_path,
                      {"strategy", "time_weight_w", "schedule", "switches",
                       "pred_time_s", "pred_energy_j", "true_time_s",
                       "true_energy_j", "meas_energy_j"});

  // Strategy comparison, with and without transition costs.
  const hw::DvfsTransitionModel& realistic = ctx.transitions;
  const std::pair<const char*, hw::DvfsTransitionModel> configs[] = {
      {"zero-cost", hw::DvfsTransitionModel{}}, {"100us+50uJ", realistic}};
  for (const auto& [tag, tm] : configs) {
    const auto cmp =
        model::compare_strategies(ctx.model, soc, phases, grid, tm);
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
      csv.add_row(std::vector<std::string>{
          std::string(r.name) + " (" + tag + ")", "0", sched,
          std::to_string(r.s->switches), std::to_string(r.s->pred_time_s),
          std::to_string(r.s->pred_energy_j), std::to_string(r.g->time_s),
          std::to_string(r.g->energy_j), std::to_string(meas.energy_j)});
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // Energy-vs-time Pareto frontier (realistic transitions).
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
    csv.add_row(std::vector<std::string>{
        "pareto", std::to_string(pt.time_weight),
        schedule_string(pred, pt.schedule),
        std::to_string(pt.schedule.switches),
        std::to_string(pt.schedule.pred_time_s),
        std::to_string(pt.schedule.pred_energy_j), std::to_string(g.time_s),
        std::to_string(g.energy_j), ""});
  }
  pf.print(std::cout);

  // Transition-cost sweep: the schedule must collapse onto the uniform
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
}

}  // namespace

int main() {
  const auto ctx = model::TuneContext::tegra_default();
  table_iv_inputs(*ctx);
  std::cout << '\n';
  one_input_report(*ctx, {"KIFMM", 16384, 64}, "fig_fmm_autotune.csv");
  return 0;
}
