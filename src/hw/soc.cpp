#include "hw/soc.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/require.hpp"

namespace eroof::hw {
namespace {

constexpr double kPicojoule = 1e-12;

bool is_core_domain(OpClass op) { return op != OpClass::kDramAccess; }

}  // namespace

double ThermalRamp::scale_at(std::uint64_t step) const {
  double f = 0.0;
  if (step > ramp_start) {
    const std::uint64_t into = step - ramp_start;
    f = ramp_steps == 0
            ? 1.0
            : std::min(1.0, static_cast<double>(into) /
                                static_cast<double>(ramp_steps));
  }
  double s = start_scale + f * (end_scale - start_scale);
  if (wobble_sigma > 0) {
    // Identity-keyed: the wobble at a step depends only on (seed, step),
    // never on how many other steps were evaluated or in what order.
    util::Rng rng = util::RngStream(seed).fork("thermal").fork(step).rng();
    s *= 1.0 + wobble_sigma * rng.normal();
  }
  // Leakage never vanishes entirely, however cold the trajectory claims.
  return std::max(s, 0.05);
}

Soc::Soc(GroundTruthEnergy truth, MachineRates rates)
    : truth_(truth), rates_(rates) {}

Soc Soc::with_leakage_scale(double scale) const {
  EROOF_REQUIRE(scale > 0);
  Soc s = *this;
  s.truth_.leak_scale = scale;
  return s;
}

Soc Soc::tegra_k1() {
  GroundTruthEnergy truth;
  // Calibrated so the *fitted* per-op costs land on the paper's Table I:
  // its published costs are exactly k * V^2 (e.g. SP: 29.0 pJ at 1.030 V and
  // 16.2 pJ at 0.770 V share k = 27.3 pJ/V^2). L1 has no Table I column; the
  // silicon pays slightly more than shared memory for the tag path.
  truth.k_dyn_pj = {
      27.3,   // SP FMA
      131.1,  // DP FMA
      56.6,   // integer
      33.4,   // shared memory word
      40.0,   // L1 word (unpublished; between SM and L2)
      85.0,   // L2 word
      369.6,  // DRAM word
  };
  truth.issue_overhead_pj = 2.0;
  truth.freq_sensitivity = 0.06;
  // Constant power decomposition solved from Table I's pi_0 column:
  // rows differing only in core voltage give c1_proc ~ 2.7 W/V; rows
  // differing only in memory voltage give c1_mem ~ 3.8 W/V.
  truth.c1_proc_w_per_v = 2.7;
  truth.c1_mem_w_per_v = 3.8;
  truth.p_misc_w = 0.15;
  truth.leak_curvature = 0.06;
  truth.setting_sigma = 0.012;
  truth.activity_sigma = 0.16;
  truth.leak_power_coupling = 0.008;
  truth.thermal_jitter = 0.01;
  truth.timing_jitter = 0.003;
  return Soc(truth, MachineRates{});
}

double Soc::true_op_energy_j(OpClass op, const DvfsSetting& s) const {
  const bool core = is_core_domain(op);
  const double v = core ? s.core.volt_v() : s.mem.volt_v();
  const double f = core ? s.core.freq_mhz / core_ladder().back().freq_mhz
                        : s.mem.freq_mhz / mem_ladder().back().freq_mhz;
  const double k = truth_.k_dyn_pj[static_cast<std::size_t>(op)];
  return k * v * v * (1.0 + truth_.freq_sensitivity * f) * kPicojoule;
}

double Soc::true_constant_power_w(const DvfsSetting& s) const {
  const double vp = s.core.volt_v();
  const double vm = s.mem.volt_v();
  const auto bend = [this](double v) {
    return 1.0 + truth_.leak_curvature * (v - 0.9);
  };
  // leak_scale (the slow thermal state) multiplies the voltage-dependent
  // leakage only; at the calibration temperature (scale 1) this reproduces
  // the original expression bit for bit.
  double p = truth_.leak_scale * (truth_.c1_proc_w_per_v * vp * bend(vp) +
                                  truth_.c1_mem_w_per_v * vm * bend(vm)) +
             truth_.p_misc_w;
  if (truth_.setting_sigma > 0) {
    // Keyed by FNV-1a of the setting label: identical on every platform.
    util::Rng point_rng(util::fnv1a64("pi0@" + s.label()));
    p *= 1.0 + truth_.setting_sigma * point_rng.normal();
  }
  return p;
}

double Soc::execution_time(const Workload& w, const DvfsSetting& s) const {
  EROOF_REQUIRE(w.compute_utilization > 0 && w.compute_utilization <= 1.0);
  EROOF_REQUIRE(w.memory_utilization > 0 && w.memory_utilization <= 1.0);
  const double fc = s.core.freq_hz();
  const double fm = s.mem.freq_hz();
  const OpCounts& n = w.ops;

  // Three core-side pipes that overlap with each other: floating point
  // (SP and DP share the FP units), integer ALU, and the on-chip load/store
  // path (SM, L1, L2 share issue).
  const double fp_time = (n[OpClass::kSpFlop] / rates_.sp_per_cycle +
                          n[OpClass::kDpFlop] / rates_.dp_per_cycle) /
                         fc;
  const double int_time = n[OpClass::kIntOp] / rates_.int_per_cycle / fc;
  const double ldst_time = (n[OpClass::kSmAccess] / rates_.sm_words_per_cycle +
                            n[OpClass::kL1Access] / rates_.l1_words_per_cycle +
                            n[OpClass::kL2Access] / rates_.l2_words_per_cycle) /
                           fc;
  const double compute_time =
      std::max({fp_time, int_time, ldst_time}) / w.compute_utilization;

  const double dram_time = n[OpClass::kDramAccess] /
                           (rates_.dram_words_per_cycle * fm) /
                           w.memory_utilization;

  return std::max(compute_time, dram_time) + rates_.kernel_overhead_s;
}

double Soc::dynamic_power_w(const Workload& w, const DvfsSetting& s,
                            double time_s) const {
  double e = 0;
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    const auto op = static_cast<OpClass>(i);
    e += w.ops.n[i] * true_op_energy_j(op, s);
  }
  // Front-end issue energy for every compute instruction (unmodeled term).
  const double vp = s.core.volt_v();
  e += w.ops.compute_ops() * truth_.issue_overhead_pj * vp * vp * kPicojoule;
  // Per-workload switching activity: deterministic in the workload name, so
  // the same kernel draws the same factor at every setting; plus a smaller
  // per-(workload, setting) component (DVFS-dependent codegen/refresh-rate
  // effects) that no 9-parameter model can absorb.
  if (truth_.activity_sigma > 0) {
    // Keyed by FNV-1a of the labels: identical on every platform.
    util::Rng name_rng(util::fnv1a64(w.name));
    util::Rng pair_rng(util::fnv1a64(w.name + "@" + s.label()));
    e *= 1.0 + truth_.activity_sigma * name_rng.normal() +
         0.1 * truth_.activity_sigma * pair_rng.normal();
  }
  return e / time_s;
}

double Soc::true_energy_j(const Workload& w, const DvfsSetting& s,
                          double time_s) const {
  return dynamic_power_w(w, s, time_s) * time_s +
         true_constant_power_w(s) * time_s;
}

SequenceMeasurement Soc::run_sequence(std::span<const Workload> phases,
                                      std::span<const DvfsSetting> settings,
                                      const DvfsTransitionModel& transitions,
                                      const PowerMon& monitor,
                                      const util::RngStream& stream,
                                      std::vector<PowerTrace>* traces_out)
    const {
  EROOF_REQUIRE(phases.size() == settings.size());
  SequenceMeasurement out;
  out.phases.reserve(phases.size());
  if (traces_out) {
    traces_out->clear();
    traces_out->reserve(phases.size());
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    PowerTrace trace;
    Measurement m = run(phases[i], settings[i], monitor, stream.fork(i),
                        traces_out ? &trace : nullptr);
    if (traces_out) traces_out->push_back(std::move(trace));
    if (i > 0)
      out.switches += transitions.charge(
          settings[i - 1], settings[i],
          [&] { return true_constant_power_w(settings[i]); },
          out.transition_time_s, out.transition_energy_j);
    out.time_s += m.time_s;
    out.energy_j += m.energy_j;
    out.phases.push_back(std::move(m));
  }
  out.time_s += out.transition_time_s;
  out.energy_j += out.transition_energy_j;
  return out;
}

Measurement Soc::run(const Workload& w, const DvfsSetting& s,
                     const PowerMon& monitor, const util::RngStream& stream,
                     PowerTrace* trace_out) const {
  util::Rng rng = stream.rng();
  const double time_s = execution_time(w, s) *
                        std::max(0.5, 1.0 + truth_.timing_jitter * rng.normal());
  const double p_dyn = dynamic_power_w(w, s, time_s);
  // Leakage wanders run to run with the die temperature, and the steady-state
  // temperature itself tracks dissipated power; the model treats constant
  // power as constant, so both are irreducible model error.
  const double p_const =
      true_constant_power_w(s) *
      (1.0 + truth_.leak_power_coupling * (p_dyn - 3.0) +
       truth_.thermal_jitter * rng.normal());

  PowerTrace trace = monitor.measure_constant(time_s, p_dyn + p_const, rng);

  Measurement m;
  m.workload = w.name;
  m.setting = s;
  m.ops = w.ops;
  m.time_s = time_s;
  m.energy_j = trace.energy_j;
  m.avg_power_w = trace.avg_power_w;
  if (trace_out) *trace_out = std::move(trace);
  return m;
}

}  // namespace eroof::hw
