// FmmSession: the incremental-evaluation contract. After every move_to the
// session's potentials must be bitwise identical to a fresh FmmEvaluator
// built from scratch over the same positions -- across OMP thread counts
// -- and the FmmPlan must be reused across rebuilds
// until the tree actually outgrows it.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstring>
#include <memory>
#include <vector>

#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "fmm/pointgen.hpp"
#include "fmm/session.hpp"
#include "trace/trace.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

constexpr Box kDomain{{0.5, 0.5, 0.5}, 0.5};

std::shared_ptr<const Kernel> laplace() {
  static const auto k = std::make_shared<const LaplaceKernel>();
  return k;
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Positions after each of `steps` Langevin steps -- a pure function of the
/// seed, so every thread-count run prices the same trajectory.
std::vector<std::vector<Vec3>> trajectory(std::size_t n, int steps,
                                          std::uint64_t seed) {
  auto ps = dynamics::ParticleSystem::random(n, kDomain, seed);
  dynamics::LangevinMover mover(seed + 1, {.sigma = 0.015});
  std::vector<std::vector<Vec3>> out;
  for (int s = 0; s < steps; ++s) {
    mover.advance(ps);
    out.push_back(ps.pos);
  }
  return out;
}

double operator_builds(const trace::TraceSession& session) {
  const auto totals = session.counter_totals();
  const auto it = totals.find("fmm.operators.builds");
  return it == totals.end() ? 0.0 : it->second;
}

// The acceptance-criteria differential: a 32-step trajectory, every step's
// potentials bitwise-identical between the incremental session and a fresh
// evaluator, across OMP thread counts {1, 2, 4}. The fresh-evaluator
// reference is computed once (it is thread-count invariant, which
// test_invariance pins); each session run is compared against it.
TEST(FmmSession, ThirtyTwoStepDifferentialAcrossThreadCounts) {
  constexpr std::size_t kN = 1200;
  constexpr int kSteps = 32;
  const Octree::Params tp{.max_points_per_box = 32, .domain = kDomain};
  const FmmConfig fcfg{.p = 3};
  const auto traj = trajectory(kN, kSteps, 11);
  util::Rng rng(12);
  const auto dens = random_densities(kN, rng);

  set_threads(4);
  std::vector<std::vector<double>> ref;
  ref.reserve(kSteps);
  for (const auto& pos : traj) {
    FmmEvaluator fresh(*laplace(), pos, tp, fcfg);
    ref.push_back(fresh.evaluate(dens));
  }

  for (const int threads : {1, 2, 4}) {
    set_threads(threads);
    FmmSession session(laplace(), traj.front(), {tp, fcfg});
    std::vector<double> phi(kN);
    for (int s = 0; s < kSteps; ++s) {
      session.move_to(traj[static_cast<std::size_t>(s)]);
      session.evaluate_into(dens, phi);
      ASSERT_EQ(std::memcmp(phi.data(),
                            ref[static_cast<std::size_t>(s)].data(),
                            kN * sizeof(double)),
                0)
          << "step " << s << " threads " << threads;
    }
    const auto& st = session.stats();
    EXPECT_EQ(st.moves, static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(st.refits + st.rebuilds, st.moves);
    // The trajectory must exercise the steady-state path, not just fall
    // back to rebuilds.
    EXPECT_GT(st.refits, 0u);
  }
  set_threads(4);
}

TEST(FmmSession, PlanReusedAcrossRebuilds) {
  // Q=48 over 1024 uniform points: depth-2 tree with ~16 points per cell,
  // far under the bound. Draining octant 0 below Q makes it a level-1 leaf
  // in a fresh build (the internal-node bound refuses the refit) while the
  // generous Q headroom keeps the tree depth unchanged -- exactly the
  // rebuild-without-deepening case that must reuse the plan.
  util::Rng rng(13);
  const auto pts = uniform_cube(1024, rng);
  const Octree::Params tp{.max_points_per_box = 48, .domain = kDomain};

  trace::TraceSession trace_session;
  trace::SessionGuard guard(trace_session);
  FmmSession session(laplace(), pts, {tp, FmmConfig{.p = 3}});
  EXPECT_EQ(operator_builds(trace_session), 1.0);
  const int depth0 = session.evaluator().tree().max_depth();

  // Evict all but 20 of octant 0's points, spreading them over the other
  // seven octants (same within-octant offsets, so densities stay mild).
  auto drained = pts;
  int kept = 0;
  int spread = 0;
  for (auto& p : drained) {
    if (p.x >= 0.5 || p.y >= 0.5 || p.z >= 0.5) continue;
    if (kept < 20) {
      ++kept;
      continue;
    }
    const int o = 1 + spread++ % 7;
    p = {p.x + (o & 1 ? 0.5 : 0.0), p.y + (o & 2 ? 0.5 : 0.0),
         p.z + (o & 4 ? 0.5 : 0.0)};
  }
  const auto dens = std::vector<double>(pts.size(), 1.0);
  session.move_to(drained);
  (void)session.evaluate(dens);
  session.move_to(pts);  // back: the level-1 leaf now overflows, rebuild again
  (void)session.evaluate(dens);

  EXPECT_EQ(session.stats().rebuilds, 2u);
  EXPECT_EQ(session.evaluator().tree().max_depth(), depth0);
  // Rebuilds reuse the plan: still exactly one operator build.
  EXPECT_EQ(operator_builds(trace_session), 1.0);
  EXPECT_EQ(session.stats().plan_builds, 1u);
}

TEST(FmmSession, DeeperTreeForcesNewPlan) {
  util::Rng rng(14);
  const auto pts = uniform_cube(512, rng);
  const Octree::Params tp{.max_points_per_box = 32, .domain = kDomain};

  trace::TraceSession trace_session;
  trace::SessionGuard guard(trace_session);
  FmmSession session(laplace(), pts, {tp, FmmConfig{.p = 3}});
  const int depth0 = session.evaluator().tree().max_depth();
  const auto plan0 = session.plan();

  // Collapse everything into a tight ball: Q forces much deeper leaves than
  // the initial plan was built for.
  std::vector<Vec3> ball(pts.size());
  for (auto& p : ball)
    p = {0.3 + 1e-3 * rng.uniform(), 0.3 + 1e-3 * rng.uniform(),
         0.3 + 1e-3 * rng.uniform()};
  session.move_to(ball);
  ASSERT_GT(session.evaluator().tree().max_depth(), depth0);
  EXPECT_NE(session.plan(), plan0);
  EXPECT_EQ(session.stats().plan_builds, 2u);
  EXPECT_EQ(operator_builds(trace_session), 2.0);

  // And the session still evaluates the new configuration exactly.
  const auto dens = random_densities(pts.size(), rng);
  const auto phi = session.evaluate(dens);
  FmmEvaluator fresh(*laplace(), ball, tp, FmmConfig{.p = 3});
  const auto ref = fresh.evaluate(dens);
  EXPECT_EQ(std::memcmp(phi.data(), ref.data(), phi.size() * sizeof(double)),
            0);
}

TEST(FmmSession, EvaluateMatchesEvaluateInto) {
  util::Rng rng(15);
  const auto pts = uniform_cube(600, rng);
  const auto dens = random_densities(600, rng);
  FmmSession session(laplace(), pts,
                     {{.max_points_per_box = 32, .domain = kDomain},
                      FmmConfig{.p = 3}});
  const auto a = session.evaluate(dens);
  std::vector<double> b(pts.size());
  session.evaluate_into(dens, b);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(FmmSession, ValidatesConstructionAndMoves) {
  util::Rng rng(16);
  const auto pts = uniform_cube(64, rng);
  const FmmSession::Config cfg{{.max_points_per_box = 16, .domain = kDomain},
                               FmmConfig{.p = 3}};
  EXPECT_THROW(FmmSession(nullptr, pts, cfg), util::ContractError);
  // A session without a fixed protocol domain cannot reuse anything.
  EXPECT_THROW(FmmSession(laplace(), pts,
                          {{.max_points_per_box = 16}, FmmConfig{.p = 3}}),
               util::ContractError);

  FmmSession session(laplace(), pts, cfg);
  auto wrong_count = pts;
  wrong_count.pop_back();
  EXPECT_THROW(session.move_to(wrong_count), util::ContractError);
  auto escaped = pts;
  escaped[0].y = 2.0;
  EXPECT_THROW(session.move_to(escaped), util::ContractError);
}

}  // namespace
}  // namespace eroof::fmm
