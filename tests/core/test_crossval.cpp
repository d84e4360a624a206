#include "core/crossval.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

#include "core/schedule.hpp"

namespace eroof::model {
namespace {

std::vector<FitSample> campaign_samples(hw::SettingRole* filter = nullptr) {
  static const auto ctx = TuneContext::tegra_default();
  return filter ? ctx->samples(*filter) : ctx->all_samples();
}

TEST(CrossVal, PerfectModelValidatesWithNearZeroError) {
  EnergyModel m;
  m.c0 = {29e-12, 139e-12, 60e-12, 35e-12, 90e-12, 377e-12};
  m.c1_proc = 2.7;
  m.c1_mem = 3.8;
  m.p_misc = 0.15;
  std::vector<FitSample> test;
  util::Rng rng(1);
  for (const auto& [role, s] : hw::table1_settings()) {
    FitSample fs;
    fs.setting = s;
    fs.ops[hw::OpClass::kSpFlop] = rng.uniform(1e8, 1e9);
    fs.time_s = 0.1;
    fs.energy_j = m.predict_energy_j(fs.ops, fs.setting, fs.time_s);
    test.push_back(fs);
  }
  const ValidationReport rep = validate(m, test);
  EXPECT_LT(rep.summary.max, 1e-9);
}

TEST(CrossVal, HoldoutErrorInPaperBand) {
  // Paper Section II-D, 2-fold holdout: mean 2.87%, sd 2.47%, max 11.94%.
  // Same order on our platform substitute.
  auto train_role = hw::SettingRole::kTrain;
  auto val_role = hw::SettingRole::kValidate;
  const auto train = campaign_samples(&train_role);
  const auto val = campaign_samples(&val_role);
  const ValidationReport rep = holdout_validation(train, val);
  EXPECT_GT(rep.summary.mean, 0.5);
  EXPECT_LT(rep.summary.mean, 7.0);
  EXPECT_LT(rep.summary.max, 30.0);
  EXPECT_EQ(rep.errors_pct.size(), val.size());
}

TEST(CrossVal, KFoldCoversEverySampleOnce) {
  const auto samples = campaign_samples();
  util::Rng rng(3);
  const ValidationReport rep = kfold_validation(samples, 8, rng);
  EXPECT_EQ(rep.errors_pct.size(), samples.size());
}

TEST(CrossVal, KFoldErrorInPaperBand) {
  const auto samples = campaign_samples();
  util::Rng rng(4);
  const ValidationReport rep = kfold_validation(samples, 16, rng);
  // Paper 16-fold: mean 6.56%, sd 3.80%, max 15.22%.
  EXPECT_GT(rep.summary.mean, 0.5);
  EXPECT_LT(rep.summary.mean, 8.0);
  EXPECT_LT(rep.summary.max, 30.0);
}

TEST(CrossVal, LeaveOneSettingOutCoversAllSamples) {
  const auto samples = campaign_samples();
  const ValidationReport rep = leave_one_setting_out(samples);
  EXPECT_EQ(rep.errors_pct.size(), samples.size());
  EXPECT_GT(rep.summary.mean, 0.5);
  EXPECT_LT(rep.summary.mean, 8.0);
}

TEST(CrossVal, InvalidKThrows) {
  const auto samples = campaign_samples();
  util::Rng rng(5);
  EXPECT_THROW(kfold_validation(samples, 1, rng), util::ContractError);
}

TEST(CrossVal, SingleSettingCannotLeaveOneOut) {
  auto train_role = hw::SettingRole::kTrain;
  auto samples = campaign_samples(&train_role);
  // Keep only one setting's samples.
  std::vector<FitSample> one;
  for (const auto& s : samples)
    if (s.setting.label() == samples.front().setting.label()) one.push_back(s);
  EXPECT_THROW(leave_one_setting_out(one), util::ContractError);
}

}  // namespace
}  // namespace eroof::model
