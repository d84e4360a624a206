#include "hw/powermon.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.hpp"

namespace eroof::hw {
namespace {

TEST(PowerMon, IntegratesConstantPowerExactly) {
  PowerMonConfig cfg;
  cfg.noise_w = 0.0;
  cfg.adc_bits = 24;  // negligible quantization
  const PowerMon pm(cfg);
  util::Rng rng(1);
  const auto trace = pm.measure_constant(2.0, 5.0, rng);
  EXPECT_NEAR(trace.energy_j, 10.0, 1e-3);
  EXPECT_NEAR(trace.avg_power_w, 5.0, 1e-4);
}

TEST(PowerMon, SampleCountMatchesRate) {
  PowerMonConfig cfg;
  cfg.sample_hz = 100.0;
  const PowerMon pm(cfg);
  util::Rng rng(2);
  const auto trace = pm.measure_constant(1.0, 1.0, rng);
  EXPECT_NEAR(static_cast<double>(trace.samples_w.size()), 101.0, 2.0);
}

TEST(PowerMon, ShortRunStillGetsTwoSamples) {
  const PowerMon pm;
  util::Rng rng(3);
  const auto trace = pm.measure_constant(1e-5, 3.0, rng);
  EXPECT_GE(trace.samples_w.size(), 2u);
  EXPECT_NEAR(trace.energy_j, 3.0 * 1e-5, 0.2 * 3.0 * 1e-5);
}

TEST(PowerMon, NoiseAveragesAcrossManySamples) {
  PowerMonConfig cfg;
  cfg.noise_w = 0.5;  // large per-sample noise
  const PowerMon pm(cfg);
  util::Rng rng(6);
  const auto trace = pm.measure_constant(4.0, 8.0, rng);
  // ~4096 samples: the mean is tight even with 0.5 W noise.
  EXPECT_NEAR(trace.avg_power_w, 8.0, 0.1);
}

TEST(PowerMon, QuantizationClampsToFullScale) {
  PowerMonConfig cfg;
  cfg.full_scale_w = 10.0;
  cfg.noise_w = 0.0;
  const PowerMon pm(cfg);
  util::Rng rng(7);
  const auto trace = pm.measure_constant(0.1, 50.0, rng);
  for (double s : trace.samples_w) EXPECT_LE(s, 10.0);
}

TEST(PowerMon, NegativePowerClampsToZero) {
  PowerMonConfig cfg;
  cfg.noise_w = 0.0;
  const PowerMon pm(cfg);
  util::Rng rng(8);
  const auto trace = pm.measure_constant(0.1, -2.0, rng);
  for (double s : trace.samples_w) EXPECT_GE(s, 0.0);
}

TEST(PowerMon, DeterministicGivenSameRngSeed) {
  const PowerMon pm;
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  const auto a = pm.measure_constant(0.5, 7.0, rng_a);
  const auto b = pm.measure_constant(0.5, 7.0, rng_b);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(PowerMon, InvalidConfigThrows) {
  PowerMonConfig bad;
  bad.sample_hz = 0;
  EXPECT_THROW(PowerMon{bad}, util::ContractError);
  PowerMonConfig bad2;
  bad2.adc_bits = 2;
  EXPECT_THROW(PowerMon{bad2}, util::ContractError);
}

TEST(PowerMon, NegativeDurationRejected) {
  const PowerMon pm;
  util::Rng rng(10);
  EXPECT_THROW(pm.measure_constant(-1e-6, 1.0, rng), util::ContractError);
}

TEST(PowerMon, ZeroDurationProbeIsFiniteAndSampled) {
  // An instantaneous probe still brackets the run with the two endpoint
  // samples: zero energy (exact, by the trapezoid rule), a finite average
  // power (the sample mean, not 0/0 = NaN), never an empty sample vector.
  PowerMonConfig cfg;
  cfg.noise_w = 0.0;
  const PowerMon pm(cfg);
  util::Rng rng(10);
  const auto trace = pm.measure_constant(0.0, 5.0, rng);
  EXPECT_EQ(trace.samples_w.size(), 2u);
  EXPECT_EQ(trace.energy_j, 0.0);
  EXPECT_TRUE(std::isfinite(trace.avg_power_w));
  EXPECT_EQ(trace.avg_power_w, 5.0);
}

TEST(PowerMon, TwoPointTrapezoidExactForSubSamplePeriodRuns) {
  // The contract for runs shorter than one sample period (1/1024 s here):
  // exactly two samples at t = 0 and t = duration, energy equal to the
  // closed-form 2-point trapezoid 0.5 * (s0 + s1) * duration -- pinned to
  // the bit. 5 W is exactly representable through the 12-bit ADC
  // (round(5/25 * 4095) = 819, and 819/4095 * 25 = 5), so with sensor
  // noise off both samples are exactly 5.0 W.
  PowerMonConfig cfg;
  cfg.noise_w = 0.0;  // defaults otherwise: 1024 Hz, 12-bit, 25 W
  const PowerMon pm(cfg);
  util::Rng rng(11);
  const double duration = 200e-6;  // well under the 976 us sample period
  const auto trace = pm.measure_constant(duration, 5.0, rng);
  ASSERT_EQ(trace.samples_w.size(), 2u);
  EXPECT_EQ(trace.samples_w[0], 5.0);
  EXPECT_EQ(trace.samples_w[1], 5.0);
  EXPECT_EQ(trace.energy_j, 0.5 * (5.0 + 5.0) * duration);
  EXPECT_EQ(trace.avg_power_w, trace.energy_j / duration);
}

}  // namespace
}  // namespace eroof::hw
