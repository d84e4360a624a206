// The paper's FMM exhibits from one profile pass: each Table IV input F1..F8
// is built and GPU-profiled once, and every section reads those profiles.
// Printed in this order:
//
//   Table III      counter events (E) and metrics (M), valued on F8;
//   Figure 4       instruction and data-access breakdown per input
//                  -> fig4_instructions.csv, fig4_data.csv;
//   Table IV + Figure 5  predicted vs measured energy over the 64 cases
//                  (8 DVFS settings S1..S8 x 8 inputs) -> fig5_validation.csv;
//   Figure 6       energy by operation type at 852/924 MHz -> fig6_energy.csv;
//   Figure 7       computation / data / constant power per case, with the
//                  microbenchmark contrast -> fig7_constant.csv;
//   Extension      per-phase DVFS scheduling per input, then one N = 16384
//                  report -> fig_fmm_autotune.csv.
//
// Exits 1 when a shape EXPERIMENTS.md claims stops holding: the Fig. 5
// error inside the paper's band (mean <= 6.17%, max <= 14.89%); the mean
// Fig. 7 constant-power share in [75, 95]% and above the SP
// microbenchmarks'; DRAM the largest mean share of data-access energy
// (Fig. 6); per-phase energy no worse than the best uniform setting's on
// every input. The reason goes to stderr, so stdout stays the report.
//
// With `--trace=out.json` / `--trace-csv=PREFIX` the run after the context
// fit is recorded: one "bench.input" span per input, and a counter registry
// holding the modeled op counts ("profile.<phase>.<class>") summed over
// F1..F8 and the N = 16384 report's profile.
#include <algorithm>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/profile.hpp"
#include "core/schedule.hpp"
#include "trace/export.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace eroof;
using hw::OpClass;

/// One Table IV input with its modeled GPU execution.
struct Profiled {
  const bench::FmmInput& in;
  fmm::FmmGpuProfile prof;
  hw::Workload total;  ///< all phases summed, named by the input's id
};

std::vector<Profiled> profile_inputs() {
  std::vector<Profiled> out;
  for (const auto& in : bench::kFmmInputs) {
    trace::ScopedSpan span(in.id, "bench.input");
    if (span.active()) {
      span.arg("n", static_cast<double>(in.n));
      span.arg("q", static_cast<double>(in.q));
    }
    auto prof = bench::profile_fmm_input(in);
    auto total = prof.total(in.id);
    out.push_back({in, std::move(prof), std::move(total)});
  }
  return out;
}

/// False, with the reason on stderr, when a claimed shape no longer holds.
bool holds(bool ok, const std::string& claim) {
  if (!ok) std::cerr << "paper_fmm: shape check failed: " << claim << "\n";
  return ok;
}

/// Op classes [0, kFirstMemory) are instructions, the rest memory levels.
constexpr std::size_t kFirstMemory =
    static_cast<std::size_t>(OpClass::kSmAccess);

/// Each of `parts` as a percentage of `whole`.
std::vector<double> percent_of(std::span<const double> parts, double whole) {
  std::vector<double> out;
  for (const double x : parts) out.push_back(100.0 * x / whole);
  return out;
}

/// `lead` followed by each of `xs` to `digits` decimals.
std::vector<std::string> cells(std::vector<std::string> lead,
                               std::span<const double> xs, int digits) {
  for (const double x : xs) lead.push_back(util::Table::num(x, digits));
  return lead;
}

/// Eq.-9 breakdown of the input's energy at `s`, over the modeled time of
/// its six phases.
model::EnergyBreakdown breakdown_at(const model::TuneContext& ctx,
                                    const Profiled& p,
                                    const hw::DvfsSetting& s) {
  double time = 0;
  for (const auto& ph : p.prof.phases)
    time += ctx.soc.execution_time(ph.workload, s);
  return model::breakdown(ctx.model, p.total.ops, s, time);
}

/// "S1".."S8": the Table IV id of setting index `si`.
std::string setting_id(std::size_t si) { return "S" + std::to_string(si + 1); }

/// Table III: the counter registry, valued on F8 (N = 65536, Q = 64), and
/// the operation counts the model derives from it.
void table3_counters(const Profiled& f8) {
  const auto counters = f8.prof.total_counters();

  std::cout << "Table III: counter events (E) and metrics (M) used to "
               "profile the FMM kernel\n(values from the modeled execution "
               "of F8: N = 65536, Q = 64)\n\n";
  util::Table t({"Type", "Name", "Value", "Description"},
                {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                 util::Align::kLeft});
  for (const auto& def : hw::counter_table()) {
    t.add_row({def.type == hw::CounterType::kEvent ? "E" : "M",
               std::string(def.name),
               util::Table::num(counters.get(def.name), 0),
               std::string(def.description)});
  }
  t.print(std::cout);

  const auto ops = hw::derive_op_counts(counters);
  std::cout << "\nDerived operation counts (the model's inputs):\n";
  for (std::size_t i = 0; i < hw::kNumOpClasses; ++i)
    std::cout << "  " << hw::kOpClassNames[i] << ": " << ops.n[i] << "\n";
}

/// Figure 4: computation instructions (SP / DP / integer) and data accesses
/// by memory level (SM / L1 / L2 / DRAM) per input. The paper sees integers
/// at ~60% of instructions for every input and DRAM at ~13% of accesses;
/// the counts do not depend on the DVFS setting.
void fig4_breakdown(const std::vector<Profiled>& inputs) {
  std::cout << "Figure 4: FMM instruction and data-access breakdown per "
               "input (percent)\n\n";
  util::Table ti({"Input", "N", "Q", "SP %", "DP %", "Integer %"},
                 {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                  util::Align::kRight, util::Align::kRight,
                  util::Align::kRight});
  util::Table td({"Input", "SM %", "L1 %", "L2 %", "DRAM %"},
                 {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                  util::Align::kRight, util::Align::kRight});
  util::CsvWriter ci("fig4_instructions.csv",
                     {"input", "n", "q", "sp_pct", "dp_pct", "int_pct"});
  util::CsvWriter cd("fig4_data.csv",
                     {"input", "sm_pct", "l1_pct", "l2_pct", "dram_pct"});

  for (const auto& [in, prof, total] : inputs) {
    const std::span<const double> n(total.ops.n);
    const auto insts = percent_of(n.first(kFirstMemory),
                                  total.ops.compute_ops());
    const auto data = percent_of(n.subspan(kFirstMemory),
                                 total.ops.memory_ops());
    const std::vector<std::string> lead = {in.id, std::to_string(in.n),
                                           std::to_string(in.q)};
    ti.add_row(cells(lead, insts, 1));
    ci.add_row(cells(lead, insts, 3));
    td.add_row(cells({in.id}, data, 1));
    cd.add_row(cells({in.id}, data, 3));
  }

  std::cout << "(a) Computation instructions:\n";
  ti.print(std::cout);
  std::cout << "\n(b) Data accesses by memory level:\n";
  td.print(std::cout);
  std::cout << "\nPaper: integer ~60% of instructions for all inputs; DRAM "
               "~13% of data accesses.\nSeries exported to "
               "fig4_instructions.csv / fig4_data.csv.\n";
}

/// Table IV + Figure 5: predicted vs measured energy for the 64 cases.
/// Paper: mean error 6.17%, sd 4.65%, range 0.09% .. 14.89%.
bool fig5_validation(const model::TuneContext& ctx,
                     const std::vector<Profiled>& inputs) {
  const auto& settings = hw::table4_settings();

  std::cout << "Table IV: DVFS settings and FMM inputs used for "
               "validation\n\n";
  util::Table tsettings({"ID", "Core Frequency", "Memory Frequency"},
                        {util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight});
  for (std::size_t i = 0; i < settings.size(); ++i)
    tsettings.add_row({setting_id(i),
                       util::Table::num(settings[i].core.freq_mhz, 0) + " MHz",
                       util::Table::num(settings[i].mem.freq_mhz, 0) + " MHz"});
  tsettings.print(std::cout);
  std::cout << '\n';
  util::Table tinputs({"ID", "N", "Q"}, {util::Align::kLeft,
                                         util::Align::kRight,
                                         util::Align::kRight});
  for (const auto& in : bench::kFmmInputs)
    tinputs.add_row({in.id, std::to_string(in.n), std::to_string(in.q)});
  tinputs.print(std::cout);

  std::cout << "\nFigure 5: estimated vs measured energy over the 64 test "
               "cases\n\n";
  util::Table t({"Case", "Measured (J)", "Predicted (J)", "Error (%)"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  util::CsvWriter csv("fig5_validation.csv",
                      {"setting", "input", "measured_j", "predicted_j",
                       "error_pct"});

  // Each case runs the six phases at one setting, phase i drawing its noise
  // from the case's stream.fork(i); a uniform run pays no transitions.
  const util::RngStream root(11);
  const hw::PowerMon pm;
  std::vector<double> errors;
  for (const auto& [in, prof, total] : inputs) {
    const auto phases = prof.workloads();
    for (std::size_t si = 0; si < settings.size(); ++si) {
      const std::vector<hw::DvfsSetting> uniform(phases.size(), settings[si]);
      const auto run =
          ctx.soc.run_sequence(phases, uniform, hw::DvfsTransitionModel{}, pm,
                               root.fork(in.id).fork(si));
      const double pred =
          ctx.model.predict_energy_j(total.ops, settings[si], run.time_s);
      const double err = util::relative_error_pct(pred, run.energy_j);
      errors.push_back(err);
      t.add_row({setting_id(si) + "-" + in.id,
                 util::Table::num(run.energy_j, 3), util::Table::num(pred, 3),
                 util::Table::num(err, 2)});
      csv.add_row({setting_id(si), in.id,
                   util::Table::num(run.energy_j, 6),
                   util::Table::num(pred, 6), util::Table::num(err, 4)});
    }
  }
  t.print(std::cout);

  const auto s = util::summarize(errors);
  std::cout << "\nError over all " << errors.size()
            << " cases: mean " << util::Table::num(s.mean, 2) << "%, sd "
            << util::Table::num(s.stddev, 2) << "%, min "
            << util::Table::num(s.min, 2) << "%, max "
            << util::Table::num(s.max, 2) << "%\n"
            << "Paper: mean 6.17%, sd 4.65%, min 0.09%, max 14.89%.\n"
            << "Series exported to fig5_validation.csv.\n";
  return holds(s.mean <= 6.17 && s.max <= 14.89,
               "Fig. 5 error outside the paper's band (mean <= 6.17%, "
               "max <= 14.89%)");
}

/// Figure 6: energy by operation type with both clocks at maximum. The
/// paper: integers (~60% of instructions) cost a minor share; DRAM serves
/// ~13% of accesses but costs up to 50% of data-access energy; L2 30-40%;
/// L1 10-20%.
bool fig6_energy(const model::TuneContext& ctx,
                 const std::vector<Profiled>& inputs) {
  const auto s1 = hw::setting(852, 924);

  std::cout << "Figure 6: FMM energy by operation type at maximum "
               "frequency (852/924 MHz)\n\n";
  util::Table t({"Input", "SP %", "DP %", "Integer %", "SM %", "L1 %",
                 "L2 %", "DRAM %", "Dynamic (J)"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  util::CsvWriter csv("fig6_energy.csv",
                      {"input", "sp_pct", "dp_pct", "int_pct", "sm_pct",
                       "l1_pct", "l2_pct", "dram_pct", "dynamic_j"});

  // Per memory level (SM, L1, L2, DRAM): its share of data-access energy.
  std::vector<std::vector<double>> data_shares(hw::kNumOpClasses -
                                               kFirstMemory);
  std::vector<double> int_comp_shares;
  for (const auto& p : inputs) {
    const auto bd = breakdown_at(ctx, p, s1);
    const double dyn = bd.computation_j() + bd.data_j();
    const std::span<const double> e(bd.op_energy_j);
    const auto shares = percent_of(e, dyn);
    auto row = cells({p.in.id}, shares, 1);
    row.push_back(util::Table::num(dyn, 3));
    t.add_row(row);
    auto csv_row = cells({p.in.id}, shares, 3);
    csv_row.push_back(util::Table::num(dyn, 6));
    csv.add_row(csv_row);

    int_comp_shares.push_back(
        100.0 * bd.op_energy_j[static_cast<std::size_t>(OpClass::kIntOp)] /
        bd.computation_j());
    const auto data = percent_of(e.subspan(kFirstMemory), bd.data_j());
    for (std::size_t m = 0; m < data.size(); ++m)
      data_shares[m].push_back(data[m]);
  }
  t.print(std::cout);

  std::vector<double> mean_share;
  for (const auto& xs : data_shares) mean_share.push_back(util::mean(xs));
  std::cout << "\nAcross inputs: integer share of computation energy "
            << util::Table::num(util::mean(int_comp_shares), 1)
            << "% (paper: ~23%; see EXPERIMENTS.md on the denominator); "
               "DRAM share of data-access energy "
            << util::Table::num(mean_share[3], 1)
            << "% (paper: up to ~50%); L2 share "
            << util::Table::num(mean_share[2], 1)
            << "% (paper: 30-40%).\nSeries exported to fig6_energy.csv.\n";
  return holds(std::max_element(mean_share.begin(), mean_share.end()) ==
                   mean_share.begin() + 3,
               "Fig. 6 DRAM is not the largest mean share of data-access "
               "energy");
}

/// Figure 7: total energy split into computation / data / constant power
/// for every case, plus the paper's contrast with the microbenchmarks:
/// constant power is 75-95% of the FMM's energy (vs ~30% for the
/// microbenchmarks), which is why its most energy-efficient setting is also
/// its fastest.
bool fig7_constant(const model::TuneContext& ctx,
                   const std::vector<Profiled>& inputs) {
  const auto& settings = hw::table4_settings();

  std::cout << "Figure 7: FMM energy split into computation / data / "
               "constant power (percent of total)\n\n";
  util::Table t({"Case", "Computation %", "Data %", "Constant %",
                 "Total (J)"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight});
  util::CsvWriter csv("fig7_constant.csv",
                      {"setting", "input", "computation_pct", "data_pct",
                       "constant_pct", "total_j"});

  std::vector<double> const_shares;
  for (const auto& p : inputs) {
    for (std::size_t si = 0; si < settings.size(); ++si) {
      const auto bd = breakdown_at(ctx, p, settings[si]);
      const double parts[] = {bd.computation_j(), bd.data_j(), bd.constant_j};
      const auto pcts = percent_of(parts, bd.total_j());
      const_shares.push_back(pcts[2]);
      auto row = cells({setting_id(si) + "-" + p.in.id}, pcts, 1);
      row.push_back(util::Table::num(bd.total_j(), 3));
      t.add_row(row);
      auto csv_row = cells({setting_id(si), p.in.id}, pcts, 3);
      csv_row.push_back(util::Table::num(bd.total_j(), 6));
      csv.add_row(csv_row);
    }
  }
  t.print(std::cout);

  const auto s = util::summarize(const_shares);
  std::cout << "\nConstant-power share across the 64 cases: mean "
            << util::Table::num(s.mean, 1) << "%, range "
            << util::Table::num(s.min, 1) << "% .. "
            << util::Table::num(s.max, 1)
            << "% (paper: 75-95%).\n";

  // The microbenchmark contrast (Section IV-C).
  const auto sweep = ub::intensity_sweep(ub::BenchClass::kSpFlops);
  std::vector<double> ub_shares;
  const auto s1 = hw::setting(852, 924);
  for (const auto& point : sweep) {
    const double time = ctx.soc.execution_time(point.workload, s1);
    const auto bd = model::breakdown(ctx.model, point.workload.ops, s1, time);
    ub_shares.push_back(100.0 * bd.constant_j / bd.total_j());
  }
  const auto us = util::summarize(ub_shares);
  std::cout << "Microbenchmark (SP sweep at 852/924) constant-power share: "
               "mean "
            << util::Table::num(us.mean, 1) << "%, min "
            << util::Table::num(us.min, 1)
            << "% (paper: ~30%) -- far below the FMM's.\n"
            << "Series exported to fig7_constant.csv.\n";
  // Per case the share spans about 68-95%, so the band is on the mean.
  const bool in_band = holds(s.mean >= 75.0 && s.mean <= 95.0,
                             "Fig. 7 mean constant-power share outside "
                             "[75, 95]%");
  return holds(us.mean < s.mean,
               "Fig. 7 microbenchmark constant-power share not below the "
               "FMM's") &&
         in_band;
}

std::string schedule_string(const model::PhaseGridPrediction& pred,
                            const model::PhaseSchedule& s) {
  std::ostringstream os;
  for (std::size_t p = 0; p < s.pick.size(); ++p) {
    if (p) os << ' ';
    os << pred.phase_names[p] << ':' << pred.grid[s.pick[p]].label();
  }
  return os.str();
}

/// One fig_fmm_autotune.csv row: a schedule's predicted cost `s`, its true
/// cost `g` (the same picks priced over the oracle table), and its measured
/// energy where it was run ("" otherwise).
void add_schedule_row(util::CsvWriter& csv, const std::string& strategy,
                      const std::string& time_weight, const std::string& sched,
                      const model::PhaseSchedule& s,
                      const model::PhaseSchedule& g, const std::string& meas) {
  csv.add_row(std::vector<std::string>{
      strategy, time_weight, sched, std::to_string(s.switches),
      std::to_string(s.pred_time_s), std::to_string(s.pred_energy_j),
      std::to_string(g.pred_time_s), std::to_string(g.pred_energy_j), meas});
}

/// Extension (paper Section V, closed loop): the exact chain DP of
/// core/schedule (model::compare_strategies) per input, with a relock stall
/// per transition, against the best uniform setting (the paper's Table V
/// strategy) and race-to-halt, on true (simulator ground-truth) energy.
/// U is compute-bound and V memory-bound (Section IV), and the constant
/// power pi_0 is voltage-dependent (eq. 8), so phases that leave one domain
/// idle can still save by flooring it.
bool per_phase_inputs(const model::TuneContext& ctx,
                      const std::vector<Profiled>& inputs) {
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
  bool ok = true;
  for (const auto& [in, prof, total] : inputs) {
    std::string uv;
    const auto cmp = model::compare_strategies(
        ctx.model, ctx.soc, prof.workloads(), grid, transitions);
    for (std::size_t i = 0; i < prof.phases.size(); ++i)
      if (prof.phases[i].name == "U" || prof.phases[i].name == "V")
        uv += (uv.empty() ? "" : " | ") + grid[cmp.per_phase.pick[i]].label();

    const double e_uniform = cmp.uniform_true.pred_energy_j;
    const double e_phase = cmp.per_phase_true.pred_energy_j;
    ok &= holds(e_phase <= e_uniform,
                std::string("per-phase energy above the best uniform "
                            "setting's on ") + in.id);
    savings.push_back(100.0 * (e_uniform - e_phase) / e_uniform);
    t.add_row({in.id, util::Table::num(e_uniform, 3),
               util::Table::num(e_phase, 3),
               util::Table::num(savings.back(), 2),
               util::Table::num(cmp.race_true.pred_energy_j, 3), uv});
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
  return ok;
}

/// One input taken further: the strategy comparison with zero-cost and with
/// the context's 100us+50uJ transitions, each schedule also run through a
/// noisy PowerMon-measured hw::Soc::run_sequence; the energy-vs-time Pareto
/// frontier; and a transition-cost sweep showing the schedule collapsing
/// onto the uniform pick as switching gets expensive. Also written to
/// `csv_path`.
void one_input_report(const model::TuneContext& ctx,
                      const bench::FmmInput& in, const char* csv_path) {
  const hw::Soc& soc = ctx.soc;
  const auto& grid = ctx.grid;
  const hw::PowerMon meter;
  const util::RngStream root(42);
  const auto phases = bench::profile_fmm_input(in).workloads();
  const auto pred = model::predict_phase_grid(ctx.model, soc, phases, grid);
  const auto truth = model::oracle_phase_grid(soc, phases, grid);

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
    const double e_uni = cmp.uniform_true.pred_energy_j;
    const struct Row {
      const char* name;
      const model::PhaseSchedule* s;
      const model::PhaseSchedule* g;
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
                 util::Table::num(r.g->pred_energy_j, 4),
                 util::Table::num(meas.energy_j, 4),
                 util::Table::num(r.g->pred_time_s * 1e3, 3),
                 util::Table::num(
                     100.0 * (r.g->pred_energy_j - e_uni) / e_uni, 2)});
      add_schedule_row(csv, std::string(r.name) + " (" + tag + ")", "0",
                       sched, *r.s, *r.g, std::to_string(meas.energy_j));
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
    const auto g = model::price_schedule(truth, realistic, pt.schedule.pick);
    pf.add_row({util::Table::num(pt.time_weight, 2),
                util::Table::num(pt.schedule.pred_time_s * 1e3, 3),
                util::Table::num(pt.schedule.pred_energy_j, 4),
                util::Table::num(g.pred_energy_j, 4),
                schedule_string(pred, pt.schedule)});
    add_schedule_row(csv, "pareto", std::to_string(pt.time_weight),
                     schedule_string(pred, pt.schedule), pt.schedule, g, "");
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
    const auto g = model::price_schedule(truth, tm, s.pick);
    sw.add_row({util::Table::num(ej, 4), std::to_string(s.switches),
                util::Table::num(s.pred_energy_j, 4),
                util::Table::num(g.pred_energy_j, 4)});
    std::ostringstream strategy;
    strategy << "sweep_E" << ej;
    add_schedule_row(csv, strategy.str(), "0", schedule_string(pred, s), s, g,
                     "");
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

int main(int argc, char** argv) {
  // Fitted before tracing starts: the campaign's PowerMon stream would
  // otherwise be nearly every event of a trace meant for the profile pass.
  const auto ctx = model::TuneContext::tegra_default();
  trace::CliTracer tracer(argc, argv);
  const auto inputs = profile_inputs();

  table3_counters(inputs[7]);
  fig4_breakdown(inputs);
  // Every section runs and prints, whichever check fails first.
  bool ok = fig5_validation(*ctx, inputs);
  ok &= fig6_energy(*ctx, inputs);
  ok &= fig7_constant(*ctx, inputs);
  ok &= per_phase_inputs(*ctx, inputs);
  std::cout << '\n';
  one_input_report(*ctx, {"KIFMM", 16384, 64}, "fig_fmm_autotune.csv");
  return ok ? 0 : 1;
}
