// Extension: closed-loop model refresh under thermal drift (DESIGN.md §14).
//
// The die leakage ramps 1.0 -> 4.0 over 64 steps (hw::ThermalRamp). Each
// step is priced three ways on the step's hot SoC with noiseless ground
// truth (model::true_schedule_cost):
//
//   static     the seed model's chain-DP schedule, installed at step 0;
//   refreshed  model::ClosedLoopScheduler, which streams its own PowerMon
//              samples into the drift detector and refits + re-runs the DP
//              when it fires;
//   oracle     the chain DP over the ground-truth grid at the step's exact
//              leakage -- the bound no measuring controller can beat.
//
// Two chains, because utilization decides which story a chain tells:
//   track  high-utilization compute phases whose optimum sits mid-ladder
//          and climbs with leakage: refreshing must beat the frozen
//          schedule and stay near the oracle;
//   hold   the KIFMM chain (n=16384, q=64, p=4), whose optimum is pinned
//          to a grid corner: refreshing must cost nothing over static.
// Exits nonzero if any of the three bounds below is missed.
#include <iostream>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "core/refresh.hpp"
#include "core/schedule.hpp"
#include "util/table.hpp"

namespace {

using namespace eroof;

struct Section {
  double static_j = 0, refreshed_j = 0, oracle_j = 0;
  std::uint64_t refreshes = 0;
};

hw::Workload compute_phase(const char* name, double flops, double dram,
                           double cu, double mu) {
  hw::Workload w;
  w.name = name;
  w.ops[hw::OpClass::kSpFlop] = flops;
  w.ops[hw::OpClass::kDramAccess] = dram;
  w.compute_utilization = cu;
  w.memory_utilization = mu;
  return w;
}

Section run_section(const std::shared_ptr<const model::TuneContext>& ctx,
                    const std::vector<hw::Workload>& phases) {
  const int steps = 64;
  const hw::ThermalRamp ramp{1.0, 4.0, 4, 32, 0.0, 7};
  const auto& tm = ctx->transitions;

  model::OnlineRefreshConfig cfg;
  // First refit only once the probe rotation has covered enough of the grid:
  // an underdetermined refit can install a worse schedule.
  cfg.min_observations = 32;
  cfg.cooldown = 16;
  model::ClosedLoopScheduler loop(ctx, phases, cfg);
  const model::PhaseSchedule static_sched = loop.schedule();

  const util::RngStream noise(2024);
  Section out;
  for (int k = 0; k < steps; ++k) {
    const double leak = ramp.scale_at(static_cast<std::uint64_t>(k));
    const hw::Soc hot = ctx->soc.with_leakage_scale(leak);
    const auto truth = model::oracle_phase_grid(hot, phases, ctx->grid);
    const auto cost = [&](const model::PhaseSchedule& s) {
      return model::true_schedule_cost(hot, phases, truth, s, tm).energy_j;
    };
    out.static_j += cost(static_sched);
    out.refreshed_j += cost(loop.schedule());
    out.oracle_j += cost(model::schedule_phases(truth, tm));
    loop.step(leak, noise.fork(k));
  }
  out.refreshes = loop.refresh().stats().refreshes;
  return out;
}

}  // namespace

int main() {
  const auto ctx = model::TuneContext::tegra_default();
  const std::vector<hw::Workload> track = {
      compute_phase("track_compute", 8e9, 1e6, 0.95, 0.2),
      compute_phase("track_compute2", 4e9, 5e5, 0.85, 0.15),
      compute_phase("track_mixed", 2e9, 64e6, 0.7, 0.7)};
  const auto kifmm =
      bench::profile_fmm_input({"hold", 16384, 64}).workloads();

  const Section tr = run_section(ctx, track);
  const Section ho = run_section(ctx, kifmm);

  std::cout << "Extension: closed-loop model refresh over a 64-step leakage "
               "ramp 1.0 -> 4.0 (true energies from the platform ground "
               "truth)\n\n";
  util::Table t({"Section", "Static (J)", "Refreshed (J)", "Oracle (J)",
                 "Refreshed/static", "Refreshed/oracle", "Refreshes"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  for (const auto& [name, s] : {std::pair{"track", tr}, std::pair{"hold", ho}})
    t.add_row({name, util::Table::num(s.static_j, 3),
               util::Table::num(s.refreshed_j, 3),
               util::Table::num(s.oracle_j, 3),
               util::Table::num(s.refreshed_j / s.static_j, 4),
               util::Table::num(s.refreshed_j / s.oracle_j, 4),
               std::to_string(s.refreshes)});
  t.print(std::cout);

  int rc = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << "\n";
      rc = 1;
    }
  };
  check(tr.refreshed_j / tr.static_j < 0.99,
        "track refreshed/static must be below 0.99");
  check(tr.refreshed_j / tr.oracle_j < 1.03,
        "track refreshed/oracle must be below 1.03");
  check(ho.refreshed_j / ho.static_j < 1.001,
        "hold refreshed/static must be below 1.001 (no thrashing)");
  return rc;
}
