#include "hw/powermon.hpp"

#include <algorithm>
#include <cmath>

#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::hw {
namespace {

/// energy / duration, except for a zero-duration probe where that is 0/0:
/// there the sample mean is the only sensible reading, and for the 2-point
/// trapezoid it coincides with lim_{d->0} energy(d)/d. Keeps avg_power_w
/// finite for every accepted duration.
double average_power(double energy_j, double duration_s,
                     const std::vector<double>& samples_w) {
  if (duration_s > 0) return energy_j / duration_s;
  double sum = 0;
  for (const double s : samples_w) sum += s;
  return sum / static_cast<double>(samples_w.size());
}

}  // namespace

PowerMon::PowerMon(PowerMonConfig cfg) : cfg_(cfg) {
  EROOF_REQUIRE(cfg_.sample_hz > 0);
  EROOF_REQUIRE(cfg_.adc_bits >= 4 && cfg_.adc_bits <= 24);
  EROOF_REQUIRE(cfg_.full_scale_w > 0);
}

double PowerMon::quantize(double watts) const {
  const double levels = static_cast<double>(1 << cfg_.adc_bits) - 1;
  const double clamped = std::clamp(watts, 0.0, cfg_.full_scale_w);
  return std::round(clamped / cfg_.full_scale_w * levels) / levels *
         cfg_.full_scale_w;
}

PowerTrace PowerMon::measure_constant(double duration_s, double power_w,
                                      util::Rng& rng) const {
  EROOF_REQUIRE(duration_s >= 0);
  const double dt = 1.0 / cfg_.sample_hz;
  const std::size_t nsamples =
      std::max<std::size_t>(2, static_cast<std::size_t>(duration_s / dt) + 1);
  const double step = duration_s / static_cast<double>(nsamples - 1);

  PowerTrace trace;
  trace.duration_s = duration_s;
  // One trace buffer per measurement, sized before the batched sample
  // loop below; the loop itself never allocates.
  trace.samples_w.resize(nsamples);  // eroof-lint: allow(hot-alloc)
  // eroof: hot-begin (batched sample path: quantize + trapezoid, no
  // per-sample allocation -- this runs once per campaign cell inside the
  // parallel region)
  for (std::size_t i = 0; i < nsamples; ++i)
    trace.samples_w[i] = quantize(power_w + rng.normal(0.0, cfg_.noise_w));

  double energy = 0;
  for (std::size_t i = 1; i < nsamples; ++i)
    energy += 0.5 * (trace.samples_w[i - 1] + trace.samples_w[i]) * step;
  trace.energy_j = energy;
  trace.avg_power_w = average_power(energy, duration_s, trace.samples_w);
  // eroof: hot-end
  return trace;
}

void PowerMon::mirror_to_session(const PowerTrace& trace) {
  trace::TraceSession* ts = trace::session();
  if (!ts) return;
  const std::size_t nsamples = trace.samples_w.size();
  const double step =
      nsamples > 1 ? trace.duration_s / static_cast<double>(nsamples - 1) : 0.0;
  const std::int64_t base_us = ts->now_us();
  for (std::size_t i = 0; i < nsamples; ++i) {
    const double t = static_cast<double>(i) * step;
    ts->emit_counter("power_w", base_us + static_cast<std::int64_t>(t * 1e6),
                     trace.samples_w[i]);
  }
  ts->add_counter_total("powermon.samples", static_cast<double>(nsamples));
  ts->add_counter_total("powermon.energy_j", trace.energy_j);
}

}  // namespace eroof::hw
