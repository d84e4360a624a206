// GPU execution profile of the FMM (the nvprof substitute).
//
// The paper profiles its CUDA FMM with nvprof counters (Table III) and feeds
// the derived operation counts into the energy model. Our FMM runs on the
// host, so this module *models* the CUDA execution instead: it walks the
// same tree, lists and operators as the evaluator and emits, per phase,
//
//   * instruction counts (analytic, from the loop structure: one thread
//     block per target box, sources staged through shared memory -- the
//     standard GPU mapping of [9]),
//   * memory-system counter events, by replaying the blocks' global-memory
//     access streams through the cache-hierarchy simulator
//     (hw::MemoryHierarchy) over a virtual address space -- in chunks, on
//     the caller's OpenMP threads, bitwise equal to a serial replay -- and
//   * the phase's utilization factors for the SoC timing model; the paper
//     measures the FMM at < 1/4 of peak IPC (Section IV-C), with the U-list
//     kernel's achievable peak itself about 1/4 of machine peak.
//
// Direct interactions run in single precision (the Tegra K1's DP throughput
// is 1/24 of SP; the GPU code keeps kernels in SP), while the ill-
// conditioned check-to-equivalent solves run in double precision -- that is
// where the profile's DP slice comes from.
//
// The profile is cross-checked against the evaluator's own work tallies
// (FmmStats) in the test suite.
#pragma once

#include <string>
#include <vector>

#include "fmm/evaluator.hpp"
#include "hw/cachesim.hpp"
#include "hw/counters.hpp"
#include "hw/workload.hpp"

namespace eroof::fmm {

/// One phase's modeled execution.
struct GpuPhaseProfile {
  std::string name;              ///< UP, U, V, W, X, DOWN
  hw::CounterSet counters;       ///< Table III events/metrics
  hw::Workload workload;         ///< counts + utilizations for hw::Soc
};

/// The whole run.
struct FmmGpuProfile {
  std::vector<GpuPhaseProfile> phases;

  /// The phases' workloads in phase order: the chain the DVFS scheduler
  /// prices.
  std::vector<hw::Workload> workloads() const;

  /// Sum of all phases as a single workload named `name`.
  hw::Workload total(const std::string& name) const;

  /// Sum of all phases' counters.
  hw::CounterSet total_counters() const;
};

/// Models the CUDA execution of `ev`'s six phases.
FmmGpuProfile profile_gpu_execution(const FmmEvaluator& ev);

}  // namespace eroof::fmm
