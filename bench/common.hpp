// Shared plumbing for the table/figure reproduction benches, which all read
// the one fitted platform, model::TuneContext::tegra_default() (the paper's
// microbenchmark campaign and the model fitted on its training half): the
// Table IV FMM inputs F1..F8 with their GPU execution profiles -- plus
// the order statistics, JSON emission and flag parsing of perf_fmm's
// trajectory mode, the one bench JSON writer here (end-to-end numbers live in
// perfbench/).
#pragma once

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/pointgen.hpp"
#include "hw/soc.hpp"

namespace eroof::bench {

/// Table IV FMM inputs.
struct FmmInput {
  const char* id;
  std::size_t n;
  std::uint32_t q;
};

inline constexpr FmmInput kFmmInputs[8] = {
    {"F1", 262144, 128}, {"F2", 131072, 64},  {"F3", 131072, 256},
    {"F4", 131072, 512}, {"F5", 65536, 1024}, {"F6", 65536, 512},
    {"F7", 65536, 128},  {"F8", 65536, 64},
};

/// Builds the input's point set, constructs the (uniform-tree, as in the
/// paper's GPU implementation) evaluator, and models its CUDA execution.
inline fmm::FmmGpuProfile profile_fmm_input(const FmmInput& in, int p = 4) {
  static const fmm::LaplaceKernel kernel;
  util::Rng rng(1000 + in.n + in.q);
  const auto pts = fmm::uniform_cube(in.n, rng);
  fmm::FmmEvaluator ev(
      kernel, pts,
      {.max_points_per_box = in.q,
       .uniform_depth = fmm::Octree::uniform_depth_for(in.n, in.q)},
      fmm::FmmConfig{.p = p});
  return fmm::profile_gpu_execution(ev);
}

// ---------------------------------------------------------------------------
// perf_fmm trajectory-mode helpers
// ---------------------------------------------------------------------------

/// Order statistics of one timing series (times in milliseconds).
struct Summary {
  double median = 0, p10 = 0, p90 = 0;
};

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty series.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

inline Summary summarize(const std::vector<double>& xs) {
  return {percentile(xs, 0.5), percentile(xs, 0.1), percentile(xs, 0.9)};
}

inline void write_summary(std::ofstream& out, const Summary& s) {
  out << "{\"median_ms\": " << s.median << ", \"p10_ms\": " << s.p10
      << ", \"p90_ms\": " << s.p90 << "}";
}

/// Parses `--name` / `--name=value`; true on match, `value` set if present.
inline bool flag_value(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') *value = arg + len + 1;
  return arg[len] == '=' || arg[len] == '\0';
}

}  // namespace eroof::bench
