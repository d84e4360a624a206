// Ground-truth physics of the simulated Tegra-K1-class SoC.
//
// This is the *platform substitute* for the paper's Jetson TK1 (DESIGN.md
// section 1): it decides how long a workload takes and how much power it
// really draws at a given DVFS setting. Its constants are calibrated so the
// per-operation costs the model later *fits* land on the paper's Table I
// values, but the fitted model never reads them -- it only sees operation
// counts, execution times, and PowerMon-sampled energies. Deliberate
// nonidealities (per-instruction issue overhead, a weak frequency dependence
// of per-op energy, thermal jitter of leakage) keep the fit honest and put
// prediction errors in the paper's observed few-percent band.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/dvfs.hpp"
#include "hw/powermon.hpp"
#include "hw/workload.hpp"
#include "util/rng.hpp"

namespace eroof::hw {

/// Hidden energy coefficients (the "silicon").
struct GroundTruthEnergy {
  /// Dynamic energy per operation at supply voltage V (volts):
  /// eps_op = k_dyn_pj[op] * V^2 * (1 + freq_sensitivity * f/f_max),
  /// in picojoules. V is the core voltage for compute/on-chip classes and
  /// the memory voltage for DRAM accesses.
  std::array<double, kNumOpClasses> k_dyn_pj{};

  /// Unmodeled per-instruction front-end (fetch/decode/schedule) energy,
  /// pJ/V^2, charged to every compute instruction. The fitted model has no
  /// such term; NNLS absorbs its average into the per-class constants and
  /// the residual becomes genuine model error.
  double issue_overhead_pj = 0;

  /// Weak frequency dependence of per-op energy (clock-tree share that does
  /// not amortize perfectly); the model assumes exactly zero.
  double freq_sensitivity = 0;

  /// Leakage / constant power: c1_proc * Vproc + c1_mem * Vmem + p_misc (W).
  double c1_proc_w_per_v = 0;
  double c1_mem_w_per_v = 0;
  double p_misc_w = 0;

  /// Superlinear leakage curvature: each leakage term is additionally
  /// scaled by (1 + curvature * (V - 0.9 V)). The model's eq. 8 is linear
  /// in V, so voltage extrapolation (leave-one-setting-out CV) pays for it.
  double leak_curvature = 0;

  /// 1-sigma *per-operating-point* fractional deviation of constant power
  /// (board regulator efficiency is a function of the operating point, not
  /// of voltage alone). Deterministic per setting, so constant-power
  /// dominated runs carry irreducible model error too.
  double setting_sigma = 0;

  /// 1-sigma *per-workload* fractional variation of dynamic energy: real
  /// kernels differ in switching activity (operand bit patterns, bank
  /// conflicts), but the model prices every op of a class identically.
  /// Deterministic per workload name, so it is a systematic model error,
  /// not averaging-friendly noise.
  double activity_sigma = 0;

  /// Leakage grows with die temperature, which tracks dissipated power;
  /// the model treats constant power as constant. Fractional leakage
  /// increase per watt of dynamic power above ~3 W.
  double leak_power_coupling = 0;

  /// 1-sigma run-to-run fractional jitter of leakage (thermal state).
  double thermal_jitter = 0;

  /// Slow thermal state: multiplies both voltage-dependent leakage slopes
  /// (c1_proc, c1_mem) -- die temperature scales subthreshold leakage --
  /// but not p_misc (board glue is temperature-flat). 1.0 is the
  /// calibration temperature; a ThermalRamp sweeps this via
  /// Soc::with_leakage_scale. The fast per-run thermal_jitter rides on top.
  double leak_scale = 1.0;

  /// 1-sigma run-to-run fractional jitter of measured execution time
  /// (scheduling, DVFS transition latency). Settings whose true roofline
  /// times tie exactly therefore measure apart, as on real hardware.
  double timing_jitter = 0;
};

/// Peak machine rates (the "datasheet"). Compute rates are per core cycle,
/// DRAM rate per memory cycle; memory units are 4-byte words.
struct MachineRates {
  double sp_per_cycle = 192;    ///< 192 CUDA cores, 1 SP FMA each
  double dp_per_cycle = 8;      ///< 1/24 of SP throughput (Tegra K1)
  double int_per_cycle = 160;   ///< integer ALU issue width
  double sm_words_per_cycle = 192;  ///< shared-memory banks
  double l1_words_per_cycle = 64;
  double l2_words_per_cycle = 32;
  double dram_words_per_cycle = 4;  ///< 16 B / EMC cycle = 14.8 GB/s @ 924 MHz
  double kernel_overhead_s = 15e-6; ///< fixed launch/drain cost per workload
};

/// One measured run, as an analyst would record it: what the counters said,
/// how long it took, what PowerMon integrated.
struct Measurement {
  std::string workload;
  DvfsSetting setting;
  OpCounts ops;
  double time_s = 0;
  double energy_j = 0;    ///< PowerMon-integrated (noisy) energy
  double avg_power_w = 0;
};

/// A measured multi-phase run under a per-phase DVFS schedule: the per-phase
/// measurements plus the transition overheads the schedule paid.
struct SequenceMeasurement {
  std::vector<Measurement> phases;   ///< one Measurement per executed phase
  int switches = 0;                  ///< domain switches paid
  double transition_time_s = 0;      ///< summed relock stalls
  double transition_energy_j = 0;    ///< switch energy + stalls' pi_0 cost
  double time_s = 0;                 ///< phases + transitions
  double energy_j = 0;               ///< phases + transitions
};

/// Deterministic die-temperature trajectory for long-horizon runs, expressed
/// as the leakage scale to apply (via Soc::with_leakage_scale) at each step:
/// flat at `start_scale` through step `ramp_start`, linear to `end_scale`
/// over the next `ramp_steps` steps, flat thereafter -- plus an optional
/// per-step wobble drawn from an identity-keyed util::RngStream fork, so
/// scale_at(step) is a pure function of (config, step) regardless of
/// evaluation order or thread count. This is the *slow* thermal state the
/// per-run `thermal_jitter` rides on; keeping it outside Soc::run keeps
/// single-run measurements bitwise-stable while the closed-loop refresh
/// (core/refresh, DESIGN.md section 14) sweeps it across a simulation.
struct ThermalRamp {
  double start_scale = 1.0;
  double end_scale = 1.0;
  std::uint64_t ramp_start = 0;  ///< last step still at start_scale
  std::uint64_t ramp_steps = 1;  ///< steps the linear ramp spans (>= 1)
  double wobble_sigma = 0.0;     ///< 1-sigma fractional per-step wobble
  std::uint64_t seed = 0;        ///< root of the wobble stream

  /// Leakage scale at `step`; deterministic and order-free.
  double scale_at(std::uint64_t step) const;
};

/// The simulated SoC.
class Soc {
 public:
  Soc(GroundTruthEnergy truth, MachineRates rates);

  /// The calibrated Tegra-K1-like instance used throughout the experiments.
  static Soc tegra_k1();

  const MachineRates& rates() const { return rates_; }

  /// Copy of this SoC with GroundTruthEnergy::leak_scale set to `scale` --
  /// the deterministic "die temperature" axis a ThermalRamp sweeps.
  /// scale == 1 reproduces this SoC's measurements bit for bit.
  Soc with_leakage_scale(double scale) const;
  double leakage_scale() const { return truth_.leak_scale; }

  /// Ground-truth per-op dynamic energy in joules at a setting. Exposed for
  /// white-box tests only; the model-fitting pipeline must not call this.
  double true_op_energy_j(OpClass op, const DvfsSetting& s) const;

  /// Ground-truth constant power (W) at a setting, without thermal jitter.
  double true_constant_power_w(const DvfsSetting& s) const;

  /// Roofline execution time of a workload at a setting (seconds):
  /// max(compute pipes, DRAM stream) under the workload's utilizations,
  /// plus fixed kernel overhead.
  double execution_time(const Workload& w, const DvfsSetting& s) const;

  /// Noiseless total energy over `time_s` (dynamic + constant). Test hook.
  double true_energy_j(const Workload& w, const DvfsSetting& s,
                       double time_s) const;

  /// Executes the workload and measures it with `monitor`: returns the
  /// counter-visible op counts, the execution time, and the PowerMon
  /// energy (sampled, quantized, noisy; leakage sees thermal jitter).
  ///
  /// All measurement noise is drawn from a private generator seeded by
  /// `stream`, so the result depends only on the stream identity -- never
  /// on what other runs executed before it. Safe to call concurrently. Does
  /// not touch the trace session; pass `trace_out` to capture the PowerMon
  /// samples and mirror them later (PowerMon::mirror_to_session) in a
  /// deterministic order.
  Measurement run(const Workload& w, const DvfsSetting& s,
                  const PowerMon& monitor, const util::RngStream& stream,
                  PowerTrace* trace_out = nullptr) const;

  /// One measured execution of a *scheduled* run: phase i executes at
  /// settings[i], and every transition between consecutive differing
  /// settings is charged by DvfsTransitionModel::charge at the entered
  /// setting's ground-truth constant power. Phase i draws its measurement
  /// noise from stream.fork(i), so the result is bitwise-identical
  /// regardless of what else ran before -- the ground-truth validation path
  /// for the per-phase DVFS scheduler (core/schedule). With one setting
  /// for every phase it is the plain sum of run(phases[i], s, monitor,
  /// stream.fork(i)) in phase order.
  ///
  /// When `traces_out` is non-null it is overwritten with one PowerTrace
  /// per phase (the in-service sample streams the closed-loop refresh
  /// mirrors into the trace session, serially, after the run).
  SequenceMeasurement run_sequence(std::span<const Workload> phases,
                                   std::span<const DvfsSetting> settings,
                                   const DvfsTransitionModel& transitions,
                                   const PowerMon& monitor,
                                   const util::RngStream& stream,
                                   std::vector<PowerTrace>* traces_out =
                                       nullptr) const;

 private:
  double dynamic_power_w(const Workload& w, const DvfsSetting& s,
                         double time_s) const;

  GroundTruthEnergy truth_;
  MachineRates rates_;
};

}  // namespace eroof::hw
