// Measurement campaign: runs the microbenchmark suite across a set of DVFS
// settings on the simulated SoC, recording one (counts, time, energy) sample
// per (point, setting) pair -- the data the model is fitted on and
// cross-validated against (paper Sections II-C / II-D).
#pragma once

#include <vector>

#include "hw/dvfs.hpp"
#include "hw/powermon.hpp"
#include "hw/soc.hpp"
#include "ubench/suite.hpp"

namespace eroof::ub {

/// One campaign sample: the measurement plus which suite point produced it
/// and the role (train/validate) of its setting.
struct Sample {
  BenchClass cls;
  double intensity = 0;
  hw::SettingRole role = hw::SettingRole::kTrain;
  hw::Measurement meas;
};

/// Runs `points` x `settings` on `soc`, measuring each run with `monitor`.
/// Cells are measured in parallel (OpenMP), each from its own RNG stream
/// forked off `root` by (setting label, workload name).
/// Sample values are bitwise-identical for every thread count and every
/// iteration order of `points`/`settings`, because a cell's stream depends
/// only on its identity. Trace spans/counters, when a session is installed,
/// are emitted serially in (setting-major, point-minor) order after the
/// parallel region, so counter totals replay bit-for-bit too.
std::vector<Sample> run_campaign(const hw::Soc& soc,
                                 const std::vector<BenchPoint>& points,
                                 const std::vector<hw::LabeledSetting>& settings,
                                 const hw::PowerMon& monitor,
                                 const util::RngStream& root);

/// Convenience: the paper's full campaign -- the default 116-point suite
/// over the 16 Table I settings (1856 samples).
std::vector<Sample> paper_campaign(const hw::Soc& soc,
                                   const hw::PowerMon& monitor,
                                   const util::RngStream& root);

}  // namespace eroof::ub
