// Simulated PowerMon 2: an inline power meter sampling voltage/current
// between the supply and the board (Bedard et al. 2010). The real device
// samples at up to 1024 Hz through an ADC; energy is the numerical integral
// of the sampled power. We reproduce exactly that pipeline -- sampling,
// quantization, sensor noise, trapezoidal integration -- so "measured"
// energies differ from closed-form truth the way a physical campaign's would.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace eroof::hw {

/// PowerMon channel configuration.
struct PowerMonConfig {
  double sample_hz = 1024.0;   ///< sampling rate (device max is 1024 Hz)
  int adc_bits = 12;           ///< ADC resolution per sample
  double full_scale_w = 25.0;  ///< measurable power range [0, full_scale]
  double noise_w = 0.02;       ///< Gaussian sensor noise, 1 sigma, in watts
};

/// One completed measurement.
struct PowerTrace {
  double duration_s = 0;
  double energy_j = 0;              ///< trapezoidal integral of samples
  /// energy / duration; for a zero-duration probe (energy is exactly 0 by
  /// the trapezoid rule) it is the arithmetic mean of the samples instead,
  /// so the field is always finite.
  double avg_power_w = 0;
  std::vector<double> samples_w;    ///< the raw sampled power values
};

/// The measurement device. Stateless apart from configuration; each
/// measurement draws noise from the caller's RNG so campaigns replay
/// deterministically from one seed.
class PowerMon {
 public:
  explicit PowerMon(PowerMonConfig cfg = {});

  const PowerMonConfig& config() const { return cfg_; }

  /// Samples a run drawing constant `power_w` over [0, duration_s] at the
  /// configured rate, applying sensor noise and ADC quantization, and
  /// integrates. Does not touch the trace session, so it is safe to call
  /// from parallel regions; callers that want the sample stream in the
  /// trace mirror the returned PowerTrace later via mirror_to_session.
  ///
  /// Runs shorter than one sample period -- down to and including
  /// duration_s == 0 -- still bracket the run with the two endpoint
  /// samples (a physical meter limited by its sampling rate does exactly
  /// this), so the trace never has an empty sample vector, its energy is
  /// the exact 2-point trapezoid 0.5 * (s0 + s1) * duration, and its
  /// average power stays finite. Negative durations are rejected.
  PowerTrace measure_constant(double duration_s, double power_w,
                              util::Rng& rng) const;

  /// Replays a completed trace into the installed trace session (no-op when
  /// none is installed): the sample stream as a "power_w" counter track
  /// anchored at the session's current wall-clock, plus the
  /// powermon.samples / powermon.energy_j totals. Parallel campaigns buffer
  /// PowerTraces and call this serially in cell order, which keeps counter
  /// totals bitwise-identical to a sequential run.
  static void mirror_to_session(const PowerTrace& trace);

 private:
  double quantize(double watts) const;

  PowerMonConfig cfg_;
};

}  // namespace eroof::hw
