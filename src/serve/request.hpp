// Wire types of the FMM serving subsystem (DESIGN.md §12).
//
// A request is one independent FMM solve: a point cloud inside the protocol
// domain, source densities, a kernel and an accuracy order. The response
// carries the potentials (bitwise identical to a fresh single-threaded
// FmmEvaluator run on the same request -- the serving contract), the
// per-phase DVFS schedule the energy model picked for this request's plan,
// and the observability fields benchmarks and tests key on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fmm/geometry.hpp"
#include "fmm/octree.hpp"

namespace eroof::serve {

/// The protocol domain: every request's points must lie inside this cube.
/// Fixing the root box is what makes tree geometry -- and therefore the
/// cached per-level operators -- a function of (kernel, accuracy, depth)
/// instead of one request's bounding box.
inline constexpr fmm::Box kServeDomain{{0.5, 0.5, 0.5}, 0.5};

/// Which kernel a request wants; `param` is Yukawa's lambda or the
/// Gaussian's sigma (ignored for Laplace). Kernels are identified by value
/// so the plan-cache key can be built from the spec alone.
enum class KernelKind : std::uint8_t { kLaplace, kYukawa, kGaussian };
struct KernelSpec {
  KernelKind kind = KernelKind::kLaplace;
  double param = 0.0;
};

/// One FMM solve. `p` is the surface order (the accuracy knob q of the
/// plan-cache key); `max_points_per_box` the paper's workload knob Q, which
/// (with the point count) determines the uniform tree depth.
struct FmmRequest {
  std::uint64_t id = 0;
  KernelSpec kernel;
  int p = 4;
  std::uint32_t max_points_per_box = 64;
  std::vector<fmm::Vec3> points;
  std::vector<double> densities;
};

enum class ServeStatus : std::uint8_t {
  kOk,       ///< solved; potentials are valid
  kShed,     ///< admission control rejected the request (queue full)
  kInvalid,  ///< rejected at admission by validate_request
  kError,    ///< the solve failed server-side; `error` has the reason
};

/// Protocol validation: empty string when `req` is well-formed, otherwise a
/// stable human-readable reason. Checks non-empty points, densities/points
/// size agreement, p inside the [FmmConfig::kMinP, kMaxP] range Operators
/// supports, max_points_per_box >= 1, a finite Yukawa lambda >= 0 or a
/// finite Gaussian sigma > 0, every point inside kServeDomain (the contract
/// the fixed-root tree build depends on), and finite densities. The server
/// runs this at admission (submit / serve_now) and answers violations with
/// ServeStatus::kInvalid, so kError is left for real server faults.
std::string validate_request(const FmmRequest& req);

/// The serving protocol's tree for a request: the fixed kServeDomain root
/// and the uniform depth from (point count, max_points_per_box). FmmServer
/// builds every request's tree from it, so a reference solve built from it
/// too is the one the serving contract compares potentials against.
fmm::Octree::Params tree_params(const FmmRequest& req);

/// The chosen per-phase DVFS schedule, in profile_gpu_execution's phase
/// order UP,U,V,W,X,DOWN. Empty when the server runs without a schedule
/// context.
///
/// Determinism scope: only `potentials` carries the bitwise serving
/// contract. The schedule is cached per (plan key, point count) and
/// profiled from the first request that reaches that pair, so two
/// same-sized requests with different point *distributions* share the
/// first arrival's schedule -- representative-based by design (the DP
/// amortizes across repeats; re-profiling every request would cost more
/// than it saves).
struct ServeSchedule {
  std::vector<std::string> setting_labels;  ///< one grid label per phase
  double pred_time_s = 0;
  double pred_energy_j = 0;
  int switches = 0;
};

struct FmmResponse {
  std::uint64_t id = 0;
  ServeStatus status = ServeStatus::kOk;
  std::vector<double> potentials;  ///< caller's point order; empty if shed

  ServeSchedule schedule;

  // Observability.
  std::string plan_key;   ///< the plan-cache key this request resolved to
  bool cache_hit = false;  ///< true if the plan was served from the cache
  int threads = 0;        ///< OpenMP team size the solve ran with
  double queue_us = 0;    ///< time from admission to a worker claiming it
  double service_us = 0;  ///< time inside the worker (solve + respond)
  std::string error;      ///< reason when status is kInvalid / kError
};

}  // namespace eroof::serve
