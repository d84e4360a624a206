// DVFS operating-point ladders for the simulated Tegra-K1-class SoC.
//
// The paper's platform exposes 15 processor (GPU core) frequencies and 7
// memory (EMC) frequencies; selecting a frequency selects a predetermined
// voltage (paper footnote 1). The frequencies below follow the Jetson TK1's
// published gbus/EMC ladders, and the voltages at the operating points the
// paper lists (Tables I and IV) match it exactly; intermediate points are
// interpolated monotonically.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace eroof::hw {

/// One frequency/voltage operating point of a clock domain.
struct OperatingPoint {
  double freq_mhz = 0;
  double volt_mv = 0;

  double freq_hz() const { return freq_mhz * 1e6; }
  double volt_v() const { return volt_mv * 1e-3; }
};

/// A complete DVFS setting: one point per independently scalable domain.
struct DvfsSetting {
  OperatingPoint core;
  OperatingPoint mem;

  /// "852/924" style label used in tables.
  std::string label() const;
};

/// The 15 processor operating points, ascending frequency.
const std::vector<OperatingPoint>& core_ladder();

/// The 7 memory operating points, ascending frequency.
const std::vector<OperatingPoint>& mem_ladder();

/// Looks up an operating point by frequency (exact match, MHz) in a ladder.
/// Throws ContractError if the frequency is not an operating point.
OperatingPoint point_at(const std::vector<OperatingPoint>& ladder,
                        double freq_mhz);

/// Builds a setting from (core MHz, mem MHz); both must be ladder points.
DvfsSetting setting(double core_mhz, double mem_mhz);

/// All 15 x 7 = 105 settings (the paper's full permutation space).
std::vector<DvfsSetting> full_grid();

/// Whether a sample is used for model training ("T") or validation ("V") in
/// the paper's 2-fold holdout (Table I).
enum class SettingRole { kTrain, kValidate };

struct LabeledSetting {
  SettingRole role;
  DvfsSetting s;
};

/// The 16 settings of Table I: 8 training + 8 validation.
const std::vector<LabeledSetting>& table1_settings();

/// The 8 system settings S1..S8 of Table IV used for FMM validation.
const std::vector<DvfsSetting>& table4_settings();

/// Cost model of a DVFS transition, and the one place a clock change is
/// priced. Changing a domain's operating point stalls execution while the
/// PLL relocks and the regulator ramps (`latency_s`; the Tegra K1's
/// gbus/EMC reclock is of order 100 us) and dissipates a fixed switch
/// energy per changed domain (`energy_j`, regulator/refresh-retraining
/// overhead). Core and memory relock in parallel, so a transition that
/// changes both domains pays one stall but two switch energies. The stall
/// itself additionally burns constant power at the entered setting; charge()
/// prices it at the pi_0 its caller supplies -- the model's for a
/// prediction, the silicon's for ground truth.
struct DvfsTransitionModel {
  double latency_s = 0;  ///< stall per transition that changes >= 1 domain
  double energy_j = 0;   ///< fixed switch energy per changed domain

  /// How many domains (0..2) change operating point between two settings.
  int changed_domains(const DvfsSetting& from, const DvfsSetting& to) const {
    return static_cast<int>(from.core.freq_mhz != to.core.freq_mhz) +
           static_cast<int>(from.mem.freq_mhz != to.mem.freq_mhz);
  }

  /// Stall time of the transition: `latency_s` if any domain changes.
  double stall_s(const DvfsSetting& from, const DvfsSetting& to) const {
    return changed_domains(from, to) > 0 ? latency_s : 0.0;
  }

  /// Fixed switch energy of the transition (excludes the stall's
  /// constant-power cost): `energy_j` per changed domain.
  double switch_energy_j(const DvfsSetting& from, const DvfsSetting& to) const {
    return energy_j * changed_domains(from, to);
  }

  /// Charges the transition from -> to to running totals: the stall to
  /// `total_s`, and the switch energy plus the stall at `pi0_w()` (watts)
  /// to `total_j`. Returns the changed-domain count; at 0 nothing is added
  /// and `pi0_w` is not called, so a caller may pass a costly lookup.
  template <class Pi0>
  int charge(const DvfsSetting& from, const DvfsSetting& to, Pi0&& pi0_w,
             double& total_s, double& total_j) const {
    const int nd = changed_domains(from, to);
    if (nd > 0) {
      total_s += stall_s(from, to);
      total_j += switch_energy_j(from, to) + stall_s(from, to) * pi0_w();
    }
    return nd;
  }
};

}  // namespace eroof::hw
