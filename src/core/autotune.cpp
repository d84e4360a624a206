#include "core/autotune.hpp"

#include <limits>

#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::model {

std::vector<hw::Measurement> measure_grid(
    const hw::Soc& soc, const hw::Workload& w,
    std::span<const hw::DvfsSetting> grid, const hw::PowerMon& monitor,
    const util::RngStream& root, int repeats) {
  EROOF_REQUIRE(repeats >= 1);
  const std::size_t nruns = grid.size() * static_cast<std::size_t>(repeats);
  std::vector<hw::Measurement> runs(nruns);
  trace::TraceSession* ts = trace::session();
  std::vector<hw::PowerTrace> traces(ts ? nruns : 0);

  const util::RngStream wl_stream = root.fork(w.name);
  std::vector<util::RngStream> setting_streams;
  setting_streams.reserve(grid.size());
  for (const auto& s : grid) setting_streams.push_back(wl_stream.fork(s.label()));

  // eroof: cold (tuning campaign: each run builds its own workload state
  // and power trace; measurement loops are not steady-state evaluate paths)
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t run = 0; run < static_cast<std::ptrdiff_t>(nruns);
       ++run) {
    const std::size_t i = static_cast<std::size_t>(run) /
                          static_cast<std::size_t>(repeats);
    const std::size_t r = static_cast<std::size_t>(run) %
                          static_cast<std::size_t>(repeats);
    const util::RngStream run_stream = setting_streams[i].fork(r);
    runs[run] = soc.run(w, grid[i], monitor, run_stream,
                        ts ? &traces[run] : nullptr);
  }
  if (ts)
    for (const auto& t : traces) hw::PowerMon::mirror_to_session(t);

  // Average repeated runs, as a careful measurement campaign would: the
  // argmin over 105 settings is otherwise dominated by run-to-run noise.
  // Accumulation is serial, in repeat order, so averages replay bit-for-bit.
  // Average power is summed energy over summed time -- NOT the mean of the
  // per-run power ratios, which under heteroscedastic repeat noise drifts
  // from energy/time and breaks energy_j ~= avg_power_w * time_s for the
  // averaged Measurement.
  std::vector<hw::Measurement> ms;
  ms.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    hw::Measurement acc = runs[i * static_cast<std::size_t>(repeats)];
    for (int r = 1; r < repeats; ++r) {
      const auto& m = runs[i * static_cast<std::size_t>(repeats) +
                           static_cast<std::size_t>(r)];
      acc.time_s += m.time_s;
      acc.energy_j += m.energy_j;
    }
    acc.avg_power_w = acc.time_s > 0 ? acc.energy_j / acc.time_s : 0.0;
    acc.time_s /= repeats;
    acc.energy_j /= repeats;
    ms.push_back(std::move(acc));
  }
  return ms;
}

TuneOutcome autotune(const EnergyModel& model,
                     std::span<const hw::Measurement> grid) {
  EROOF_REQUIRE(!grid.empty());

  trace::ScopedSpan span("autotune", "model.autotune");
  trace::TraceSession* ts = trace::session();

  TuneOutcome out;
  double best_pred = std::numeric_limits<double>::infinity();
  double best_time = std::numeric_limits<double>::infinity();
  double best_energy = std::numeric_limits<double>::infinity();

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const hw::Measurement& m = grid[i];

    const double pred = model.predict_energy_j(m.ops, m.setting, m.time_s);
    if (ts) {
      // Per-candidate predicted vs ground-truth energy, as counter tracks.
      const std::int64_t t = ts->now_us();
      ts->emit_counter("autotune.predicted_j", t, pred);
      ts->emit_counter("autotune.measured_j", t, m.energy_j);
      ts->add_counter_total("autotune.candidates", 1);
    }
    if (pred < best_pred) {
      best_pred = pred;
      out.model_idx = i;
    }

    if (m.time_s < best_time) best_time = m.time_s;

    if (m.energy_j < best_energy) {
      best_energy = m.energy_j;
      out.best_idx = i;
    }
  }

  // Time oracle with race-to-halt tie-breaking: among candidates whose time
  // is within kTieTolerance of the fastest, take the highest clocks
  // ("run as fast as possible, then turn everything off"). The tolerance
  // mirrors the energy tie rule below: under simulated measurement noise two
  // settings never tie *exactly*, so an exact comparison would make the
  // documented preference dead code and leave the pick to noise order.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const hw::Measurement& m = grid[i];
    if (m.time_s > best_time * (1.0 + kTieTolerance)) continue;
    const hw::Measurement& cur = grid[out.oracle_idx];
    const bool in_tie = cur.time_s <= best_time * (1.0 + kTieTolerance);
    const bool hotter =
        m.setting.core.freq_mhz > cur.setting.core.freq_mhz ||
        (m.setting.core.freq_mhz == cur.setting.core.freq_mhz &&
         m.setting.mem.freq_mhz > cur.setting.mem.freq_mhz);
    if (!in_tie || hotter) out.oracle_idx = i;
  }

  const auto lost_pct = [&](std::size_t idx) {
    // A single-candidate grid (or a degenerate zero-energy minimum, e.g. a
    // grid of zeroed Measurements in a unit test) gives every strategy the
    // same pick; report 0% lost rather than dividing by zero.
    if (idx == out.best_idx || !(best_energy > 0)) return 0.0;
    return 100.0 * (grid[idx].energy_j - best_energy) / best_energy;
  };
  out.model_lost_pct = lost_pct(out.model_idx);
  out.oracle_lost_pct = lost_pct(out.oracle_idx);
  out.model_correct = out.model_lost_pct <= 100.0 * kTieTolerance;
  out.oracle_correct = out.oracle_lost_pct <= 100.0 * kTieTolerance;
  if (span.active()) {
    span.arg("candidates", static_cast<double>(grid.size()));
    span.arg("model_idx", static_cast<double>(out.model_idx));
    span.arg("oracle_idx", static_cast<double>(out.oracle_idx));
    span.arg("best_idx", static_cast<double>(out.best_idx));
    span.arg("model_lost_pct", out.model_lost_pct);
    span.arg("oracle_lost_pct", out.oracle_lost_pct);
  }
  return out;
}

}  // namespace eroof::model
