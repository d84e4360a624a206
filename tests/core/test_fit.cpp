#include "core/fit.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

#include "ubench/campaign.hpp"
#include "util/rng.hpp"

namespace eroof::model {
namespace {

/// Synthesizes noiseless samples from a known model; the fit must recover
/// the planted constants (identifiability of eq. 9).
std::vector<FitSample> synthetic_samples(const EnergyModel& truth) {
  std::vector<FitSample> samples;
  util::Rng rng(11);
  for (const auto& [role, s] : hw::table1_settings()) {
    for (int k = 0; k < 8; ++k) {
      FitSample fs;
      fs.setting = s;
      fs.ops[hw::OpClass::kSpFlop] = rng.uniform(0, 1e9);
      fs.ops[hw::OpClass::kDpFlop] = rng.uniform(0, 2e8);
      fs.ops[hw::OpClass::kIntOp] = rng.uniform(0, 1e9);
      fs.ops[hw::OpClass::kSmAccess] = rng.uniform(0, 5e8);
      fs.ops[hw::OpClass::kL2Access] = rng.uniform(0, 3e8);
      fs.ops[hw::OpClass::kDramAccess] = rng.uniform(0, 2e8);
      fs.time_s = rng.uniform(0.05, 0.5);
      fs.energy_j = truth.predict_energy_j(fs.ops, fs.setting, fs.time_s);
      samples.push_back(fs);
    }
  }
  return samples;
}

EnergyModel planted_model() {
  EnergyModel m;
  m.c0 = {27e-12, 131e-12, 56e-12, 33e-12, 85e-12, 369e-12};
  m.c1_proc = 2.7;
  m.c1_mem = 3.8;
  m.p_misc = 0.15;
  return m;
}

TEST(Fit, RecoversPlantedConstantsFromNoiselessData) {
  const EnergyModel truth = planted_model();
  const auto samples = synthetic_samples(truth);
  const FitResult r = fit_energy_model(samples);
  ASSERT_TRUE(r.converged);
  for (std::size_t j = 0; j < kNumCoeffs; ++j)
    EXPECT_NEAR(r.model.c0[j], truth.c0[j], 1e-3 * truth.c0[j]) << "c0" << j;
  EXPECT_NEAR(r.model.c1_proc, truth.c1_proc, 1e-3 * truth.c1_proc);
  EXPECT_NEAR(r.model.c1_mem, truth.c1_mem, 1e-3 * truth.c1_mem);
  EXPECT_NEAR(r.model.p_misc, truth.p_misc, 1e-2);
  EXPECT_LT(r.residual_norm, 1e-6);
}

TEST(Fit, AllCoefficientsNonNegative) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto campaign = ub::paper_campaign(soc, pm, util::RngStream(1));
  std::vector<FitSample> samples;
  for (const auto& s : campaign) samples.push_back(to_fit_sample(s.meas));
  const FitResult r = fit_energy_model(samples);
  ASSERT_TRUE(r.converged);
  for (double c : r.model.c0) EXPECT_GE(c, 0.0);
  EXPECT_GE(r.model.c1_proc, 0.0);
  EXPECT_GE(r.model.c1_mem, 0.0);
  EXPECT_GE(r.model.p_misc, 0.0);
}

TEST(Fit, CampaignFitLandsNearTable1Costs) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto campaign = ub::paper_campaign(soc, pm, util::RngStream(42));
  std::vector<FitSample> train;
  for (const auto& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      train.push_back(to_fit_sample(s.meas));
  const FitResult r = fit_energy_model(train);
  ASSERT_TRUE(r.converged);

  const auto s1 = hw::setting(852, 924);
  // Paper Table I at 852/924: SP 29.0, DP 139.1, INT 60.0, SM 35.4,
  // L2 90.2, Mem 377.0 pJ, pi0 6.8 W. Allow 20% for the nonidealities
  // NNLS must absorb.
  EXPECT_NEAR(r.model.op_energy_j(hw::OpClass::kSpFlop, s1) * 1e12, 29.0,
              0.2 * 29.0);
  EXPECT_NEAR(r.model.op_energy_j(hw::OpClass::kDpFlop, s1) * 1e12, 139.1,
              0.2 * 139.1);
  EXPECT_NEAR(r.model.op_energy_j(hw::OpClass::kIntOp, s1) * 1e12, 60.0,
              0.2 * 60.0);
  EXPECT_NEAR(r.model.op_energy_j(hw::OpClass::kDramAccess, s1) * 1e12, 377.0,
              0.2 * 377.0);
  EXPECT_NEAR(r.model.constant_power_w(s1), 6.8, 0.15 * 6.8);
}

TEST(Fit, DesignRowLayout) {
  FitSample s;
  s.setting = hw::setting(852, 924);
  s.ops[hw::OpClass::kSpFlop] = 10;
  s.ops[hw::OpClass::kSmAccess] = 4;
  s.ops[hw::OpClass::kL1Access] = 6;  // folded into the SM column
  s.time_s = 2.0;
  const auto row = design_row(s);
  const double vp2 = 1.030 * 1.030;
  EXPECT_NEAR(row[0], 10 * vp2, 1e-12);
  EXPECT_NEAR(row[3], (4 + 6) * vp2, 1e-12);
  EXPECT_NEAR(row[kNumCoeffs + 0], 2.0 * 1.030, 1e-12);
  EXPECT_NEAR(row[kNumCoeffs + 1], 2.0 * 1.010, 1e-12);
  EXPECT_NEAR(row[kNumCoeffs + 2], 2.0, 1e-12);
}

TEST(Fit, TooFewSamplesThrows) {
  std::vector<FitSample> samples(3);
  EXPECT_THROW(fit_energy_model(samples), util::ContractError);
}

TEST(Fit, ToFitSampleCopiesMeasurement) {
  hw::Measurement m;
  m.setting = hw::setting(648, 528);
  m.time_s = 0.5;
  m.energy_j = 3.0;
  m.ops[hw::OpClass::kIntOp] = 7;
  const FitSample s = to_fit_sample(m);
  EXPECT_EQ(s.time_s, 0.5);
  EXPECT_EQ(s.energy_j, 3.0);
  EXPECT_EQ(s.ops[hw::OpClass::kIntOp], 7);
}

}  // namespace
}  // namespace eroof::model
