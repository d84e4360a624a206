#include "ubench/campaign.hpp"

#include <cstddef>

#include "trace/trace.hpp"

namespace eroof::ub {

std::vector<Sample> run_campaign(const hw::Soc& soc,
                                 const std::vector<BenchPoint>& points,
                                 const std::vector<hw::LabeledSetting>& settings,
                                 const hw::PowerMon& monitor,
                                 const util::RngStream& root) {
  trace::ScopedSpan campaign_span("run_campaign", "ubench");
  const std::size_t npoints = points.size();
  const std::size_t ncells = points.size() * settings.size();
  std::vector<Sample> samples(ncells);

  // PowerMon sample streams are buffered per cell during the parallel loop
  // and mirrored into the session serially afterwards; only pay for the
  // buffers when a session is actually installed.
  trace::TraceSession* ts = trace::session();
  std::vector<hw::PowerTrace> traces(ts ? ncells : 0);

  // Hoist the per-setting forks: label() formats through an ostringstream,
  // so deriving it once per setting instead of once per cell matters at
  // 1856 cells.
  std::vector<util::RngStream> setting_streams;
  setting_streams.reserve(settings.size());
  for (const auto& [role, setting] : settings)
    setting_streams.push_back(root.fork(setting.label()));

  // Cell index flattens settings-major so samples keep the legacy
  // (setting, point) order. Every cell draws from a stream derived from its
  // identity alone, so scheduling cannot perturb any measurement.
  // eroof: hot-begin (campaign cell bodies: one simulated measurement each)
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t cell = 0; cell < static_cast<std::ptrdiff_t>(ncells);
       ++cell) {
    const std::size_t si = static_cast<std::size_t>(cell) / npoints;
    const std::size_t pi = static_cast<std::size_t>(cell) % npoints;
    const auto& [role, setting] = settings[si];
    const BenchPoint& p = points[pi];
    const util::RngStream cell_stream =
        setting_streams[si].fork(p.workload.name);

    Sample s;
    s.cls = p.cls;
    s.intensity = p.intensity;
    s.role = role;
    s.meas = soc.run(p.workload, setting, monitor, cell_stream,
                     ts ? &traces[cell] : nullptr);
    samples[cell] = std::move(s);
  }
  // eroof: hot-end

  if (ts) {
    // Serial replay in cell order: one span per campaign cell plus the
    // counter totals, exactly as the sequential implementation emitted them.
    for (std::size_t cell = 0; cell < ncells; ++cell) {
      const auto& [role, setting] = settings[cell / npoints];
      const BenchPoint& p = points[cell % npoints];
      const Sample& s = samples[cell];
      trace::ScopedSpan cell_span(p.workload.name, "ubench.sample");
      cell_span.arg("f_proc_mhz", setting.core.freq_mhz);
      cell_span.arg("f_mem_mhz", setting.mem.freq_mhz);
      cell_span.arg("intensity", p.intensity);
      cell_span.arg("time_s", s.meas.time_s);
      cell_span.arg("energy_j", s.meas.energy_j);
      trace::counter_add("ubench.samples", 1);
      trace::counter_add("ubench.energy_j", s.meas.energy_j);
      trace::counter_add("ubench.time_s", s.meas.time_s);
      hw::PowerMon::mirror_to_session(traces[cell]);
    }
  }

  if (campaign_span.active()) {
    campaign_span.arg("points", static_cast<double>(points.size()));
    campaign_span.arg("settings", static_cast<double>(settings.size()));
  }
  return samples;
}

std::vector<Sample> paper_campaign(const hw::Soc& soc,
                                   const hw::PowerMon& monitor,
                                   const util::RngStream& root) {
  return run_campaign(soc, default_suite(), hw::table1_settings(), monitor,
                      root);
}

}  // namespace eroof::ub
