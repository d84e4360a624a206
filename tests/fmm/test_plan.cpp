// FmmPlan: operator sharing (the "fmm.operators.builds" regression hook
// proving two evaluators on one plan build operators once, while the legacy
// API builds per construction), bitwise-identical results plan-shared vs
// locally built, and the plan constructor's contract checks.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

constexpr Box kDomain{{0.5, 0.5, 0.5}, 0.5};

::testing::AssertionResult bitwise_equal(const std::vector<double>& got,
                                         const std::vector<double>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
  return ::testing::AssertionSuccess();
}

Octree::Params uniform_params(std::size_t n, std::uint32_t q) {
  Octree::Params tp;
  tp.max_points_per_box = q;
  tp.uniform_depth = Octree::uniform_depth_for(n, q);
  tp.domain = kDomain;
  return tp;
}

double operator_builds(const trace::TraceSession& session) {
  const auto totals = session.counter_totals();
  const auto it = totals.find("fmm.operators.builds");
  return it == totals.end() ? 0.0 : it->second;
}

TEST(FmmPlan, SharedPlanBuildsOperatorsOnce) {
  constexpr std::size_t kN = 512;
  util::Rng rng(7);
  const auto pts_a = uniform_cube(kN, rng);
  const auto pts_b = sphere_surface(kN, rng);
  std::vector<Vec3> pts_b_in;
  for (const Vec3& p : pts_b)
    pts_b_in.push_back({0.5 + (p.x - 0.5) * 0.45, 0.5 + (p.y - 0.5) * 0.45,
                        0.5 + (p.z - 0.5) * 0.45});
  const auto tp = uniform_params(kN, 8);

  trace::TraceSession session;
  trace::SessionGuard guard(session);
  const auto kernel = std::make_shared<LaplaceKernel>();
  const auto plan = std::make_shared<FmmPlan>(
      kernel, kDomain.half, tp.uniform_depth, FmmConfig{.p = 4});
  EXPECT_EQ(operator_builds(session), 1.0);

  // Two evaluators, different point sets, one plan: no further builds.
  FmmEvaluator ev_a(plan, pts_a, tp);
  FmmEvaluator ev_b(plan, pts_b_in, tp);
  EXPECT_EQ(operator_builds(session), 1.0);
  EXPECT_EQ(&ev_a.operators(), &ev_b.operators());
}

TEST(FmmPlan, LegacyApiBuildsPerConstruction) {
  constexpr std::size_t kN = 512;
  util::Rng rng(7);
  const auto pts = uniform_cube(kN, rng);
  static const LaplaceKernel kernel;

  trace::TraceSession session;
  trace::SessionGuard guard(session);
  FmmEvaluator ev_a(kernel, pts, uniform_params(kN, 8), FmmConfig{.p = 4});
  EXPECT_EQ(operator_builds(session), 1.0);
  FmmEvaluator ev_b(kernel, pts, uniform_params(kN, 8), FmmConfig{.p = 4});
  EXPECT_EQ(operator_builds(session), 2.0);
}

TEST(FmmPlan, SharedPlanMatchesLegacyBitwise) {
  constexpr std::size_t kN = 512;
  util::Rng rng(11);
  const auto pts = uniform_cube(kN, rng);
  const auto dens = random_densities(kN, rng);
  const auto tp = uniform_params(kN, 8);
  static const LaplaceKernel kernel;

  FmmEvaluator legacy(kernel, pts, tp, FmmConfig{.p = 4});
  const auto want = legacy.evaluate(dens);

  const auto plan = std::make_shared<FmmPlan>(
      FmmPlan::borrow_kernel(kernel), kDomain.half, tp.uniform_depth,
      FmmConfig{.p = 4});
  FmmEvaluator shared(plan, pts, tp);
  EXPECT_TRUE(bitwise_equal(shared.evaluate(dens), want));
}

TEST(FmmPlan, RejectsMismatchedTree) {
  constexpr std::size_t kN = 256;
  util::Rng rng(19);
  const auto pts = uniform_cube(kN, rng);
  const auto kernel = std::make_shared<LaplaceKernel>();
  const auto tp = uniform_params(kN, 8);

  // Deeper tree than the plan supports.
  auto shallow = std::make_shared<FmmPlan>(kernel, kDomain.half, 1,
                                           FmmConfig{.p = 4});
  EXPECT_THROW((FmmEvaluator{shallow, pts, tp}), std::exception);

  // Root box that differs bitwise from the plan's.
  auto off = std::make_shared<FmmPlan>(kernel, 0.25, tp.uniform_depth,
                                       FmmConfig{.p = 4});
  EXPECT_THROW((FmmEvaluator{off, pts, tp}), std::exception);
}

}  // namespace
}  // namespace eroof::fmm
