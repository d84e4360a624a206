#include "ubench/campaign.hpp"

#include <gtest/gtest.h>

namespace eroof::ub {
namespace {

TEST(Campaign, PaperCampaignProduces1856Samples) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto samples = paper_campaign(soc, pm, util::RngStream(1));
  EXPECT_EQ(samples.size(), 1856u);  // 116 points x 16 settings
}

TEST(Campaign, EverySampleHasPositiveTimeAndEnergy) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto suite = intensity_sweep(BenchClass::kL2, 4e6);
  std::vector<hw::LabeledSetting> settings = {
      {hw::SettingRole::kTrain, hw::setting(852, 924)},
      {hw::SettingRole::kValidate, hw::setting(396, 204)}};
  const auto samples =
      run_campaign(soc, suite, settings, pm, util::RngStream(2));
  ASSERT_EQ(samples.size(), suite.size() * 2);
  for (const auto& s : samples) {
    EXPECT_GT(s.meas.time_s, 0);
    EXPECT_GT(s.meas.energy_j, 0);
    EXPECT_GT(s.meas.avg_power_w, 1.0);   // at least constant power
    EXPECT_LT(s.meas.avg_power_w, 25.0);  // below meter full scale
  }
}

TEST(Campaign, RolesFollowTheSettingLabels) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto suite = intensity_sweep(BenchClass::kSharedMem, 4e6);
  std::vector<hw::LabeledSetting> settings = {
      {hw::SettingRole::kValidate, hw::setting(540, 528)}};
  const auto samples =
      run_campaign(soc, suite, settings, pm, util::RngStream(3));
  for (const auto& s : samples)
    EXPECT_EQ(s.role, hw::SettingRole::kValidate);
}

TEST(Campaign, HigherIntensityCostsMoreEnergyAtFixedSetting) {
  const auto soc = hw::Soc::tegra_k1();
  const hw::PowerMon pm;
  const auto sweep = intensity_sweep(BenchClass::kSpFlops, 64e6);
  std::vector<hw::LabeledSetting> settings = {
      {hw::SettingRole::kTrain, hw::setting(852, 924)}};
  const auto samples =
      run_campaign(soc, sweep, settings, pm, util::RngStream(4));
  // The most intense point must cost clearly more than the least intense
  // (it executes 256x the flops).
  EXPECT_GT(samples.back().meas.energy_j, 2.0 * samples.front().meas.energy_j);
}

}  // namespace
}  // namespace eroof::ub
