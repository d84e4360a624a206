#include "hw/dvfs.hpp"

#include <sstream>

#include "util/require.hpp"

namespace eroof::hw {

std::string DvfsSetting::label() const {
  std::ostringstream os;
  os << core.freq_mhz << '/' << mem.freq_mhz;
  return os.str();
}

const std::vector<OperatingPoint>& core_ladder() {
  // 15 gbus operating points. Voltages at the paper's published points
  // (72/760, 180/760, 396/770, 540/840, 648/890, 756/950, 852/1030 from
  // Table I; 612 MHz appears in Table IV) -- the rest interpolated.
  static const std::vector<OperatingPoint> ladder = {
      {72, 760},  {108, 760}, {180, 760}, {252, 760}, {324, 765},
      {396, 770}, {468, 800}, {540, 840}, {612, 870}, {648, 890},
      {684, 910}, {708, 920}, {756, 950}, {804, 990}, {852, 1030},
  };
  return ladder;
}

const std::vector<OperatingPoint>& mem_ladder() {
  // 7 EMC operating points; 68/800, 204/800, 528/880, 924/1010 appear in
  // Table I, 396 and 792 in Table IV.
  static const std::vector<OperatingPoint> ladder = {
      {68, 800},  {204, 800}, {396, 850}, {528, 880},
      {600, 900}, {792, 950}, {924, 1010},
  };
  return ladder;
}

OperatingPoint point_at(const std::vector<OperatingPoint>& ladder,
                        double freq_mhz) {
  for (const auto& p : ladder)
    if (p.freq_mhz == freq_mhz) return p;
  EROOF_REQUIRE_MSG(false, "frequency " + std::to_string(freq_mhz) +
                               " MHz is not an operating point");
  return {};
}

DvfsSetting setting(double core_mhz, double mem_mhz) {
  return {point_at(core_ladder(), core_mhz), point_at(mem_ladder(), mem_mhz)};
}

std::vector<DvfsSetting> full_grid() {
  std::vector<DvfsSetting> grid;
  grid.reserve(core_ladder().size() * mem_ladder().size());
  for (const auto& c : core_ladder())
    for (const auto& m : mem_ladder()) grid.push_back({c, m});
  return grid;
}

const std::vector<LabeledSetting>& table1_settings() {
  using enum SettingRole;
  static const std::vector<LabeledSetting> rows = {
      {kTrain, setting(852, 924)},    {kTrain, setting(396, 924)},
      {kTrain, setting(852, 528)},    {kTrain, setting(648, 528)},
      {kTrain, setting(396, 528)},    {kTrain, setting(852, 204)},
      {kTrain, setting(648, 204)},    {kTrain, setting(396, 204)},
      {kValidate, setting(756, 924)}, {kValidate, setting(180, 528)},
      {kValidate, setting(540, 528)}, {kValidate, setting(540, 204)},
      {kValidate, setting(756, 204)}, {kValidate, setting(72, 68)},
      {kValidate, setting(756, 68)},  {kValidate, setting(180, 924)},
  };
  return rows;
}

const std::vector<DvfsSetting>& table4_settings() {
  static const std::vector<DvfsSetting> rows = {
      setting(852, 924), setting(756, 924), setting(180, 924),
      setting(852, 792), setting(612, 528), setting(540, 528),
      setting(612, 396), setting(852, 204),
  };
  return rows;
}

}  // namespace eroof::hw
