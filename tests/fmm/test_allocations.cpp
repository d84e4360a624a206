// Zero-allocation contract of the FMM phase loops.
//
// FmmEvaluator promises that after setup (construction + the first
// evaluate() call, which sizes the per-thread workspaces), repeat
// evaluations touch the heap only for the caller-facing vectors -- the
// densities copy-in span adapter costs nothing and the returned potentials
// are one allocation. The six phase loops themselves run entirely against
// the preallocated arenas and Workspace scratch.
//
// Verified with a replacement global operator new/delete pair that counts
// calls. The hook lives in this dedicated test binary so it cannot distort
// the other suites; it forwards to malloc/free, which keeps ASan's
// interception intact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "fmm/session.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<long> g_new_calls{0};

}  // namespace

void* operator new(std::size_t size) {
  // Allocation tally: the tests only compare counts across a quiescent
  // before/after window, so no ordering is needed.
  g_new_calls.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow variants must be replaced too: libstdc++'s temporary buffers
// (std::stable_sort) allocate through them, and mixing a default nothrow-new
// with our malloc-backed delete is an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  // Allocation tally (see above): counts only, no ordering needed.
  g_new_calls.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace eroof::fmm {
namespace {

// One shared kernel so the counting windows see no kernel construction.
const LaplaceKernel& kernel_instance() {
  static const LaplaceKernel k;
  return k;
}

long count_steady_state_allocations(std::size_t n, std::uint32_t q, int p) {
  util::Rng rng(31);
  const auto pts = uniform_cube(n, rng);
  const auto dens = random_densities(n, rng);
  FmmEvaluator ev(kernel_instance(), pts, {.max_points_per_box = q},
                  FmmConfig{.p = p});
  (void)ev.evaluate(dens);  // warm-up: sizes the per-thread workspaces
  // Quiescent read: no other thread is allocating between the probes.
  const long before = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  auto phi = ev.evaluate(dens);
  const long after = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  EXPECT_EQ(phi.size(), n);
  return after - before;
}

TEST(FmmAllocations, SteadyStateEvaluateIsAllocationFreePerPhase) {
  // The only allowed allocations per steady-state evaluate() are the
  // caller-facing ones: the returned potentials vector plus the densities
  // working copy -- a small constant, emphatically not O(nodes) or O(N).
  constexpr long kAllowed = 8;
  const long small = count_steady_state_allocations(1500, 32, 4);
  EXPECT_LE(small, kAllowed) << "phase loops are allocating";
  EXPECT_GE(small, 1) << "counting hook is not engaged";
}

TEST(FmmAllocations, AllocationCountIndependentOfProblemSize) {
  // Doubling N (and with it the node count and list sizes) must not change
  // the steady-state allocation count: every per-node and per-pair buffer
  // lives in the arenas or the workspaces.
  const long small = count_steady_state_allocations(1000, 32, 4);
  const long large = count_steady_state_allocations(4000, 32, 4);
  EXPECT_EQ(small, large);
}

// ---------------------------------------------------------------------------
// The dynamics stepping loop (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST(FmmAllocations, SteadyStateSessionStepIsAllocationFree) {
  // FmmSession's steady state -- move_to absorbed by refit, evaluate_into
  // a caller-owned buffer -- must touch the heap zero times: no returned
  // vector, no densities copy, no refit scratch growth.
  util::Rng rng(33);
  const auto pts = uniform_cube(1200, rng);
  const auto dens = random_densities(1200, rng);
  FmmSession session(std::make_shared<const LaplaceKernel>(), pts,
                     {{.max_points_per_box = 32,
                       .domain = {{0.5, 0.5, 0.5}, 0.5}},
                      FmmConfig{.p = 4}});
  std::vector<double> phi(pts.size());
  auto moved = pts;
  for (auto& p : moved) p.x += 1e-7;  // tiny drift: refit must absorb it

  session.move_to(moved);  // warm-up: sizes the refit scratch
  session.evaluate_into(dens, phi);

  // Quiescent read: no other thread is allocating between the probes.
  const long before = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  for (int s = 0; s < 3; ++s) {
    for (auto& p : moved) p.y += 1e-7;
    session.move_to(moved);
    session.evaluate_into(dens, phi);
  }
  const long after = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(session.stats().refits, session.stats().moves);
}

TEST(FmmAllocations, SessionStepAcrossLeafBoundariesIsAllocationFree) {
  // Moves that carry points into other leaves: occupancy and the tree order
  // change, the structure does not, so every move is still a refit that
  // keeps the lists and the U pair schedule -- with no allocation, and with
  // potentials bitwise equal to a fresh evaluator on the moved points.
  util::Rng rng(35);
  const std::size_t n = 1200;
  const auto pts = uniform_cube(n, rng);
  const auto dens = random_densities(n, rng);
  const FmmSession::Config cfg{{.max_points_per_box = 32,
                                .uniform_depth = 2,
                                .domain = {{0.5, 0.5, 0.5}, 0.5}},
                               FmmConfig{.p = 4}};
  FmmSession session(std::make_shared<const LaplaceKernel>(), pts, cfg);
  const auto occupancy = [&] {
    std::vector<std::uint32_t> counts;
    for (const int b : session.evaluator().tree().leaves())
      counts.push_back(session.evaluator().tree().node(b).num_points());
    return counts;
  };
  const auto occupancy_before = occupancy();

  std::vector<double> phi(n);
  auto moved = pts;
  // Step s sends points 3s..3s+2 next to points half the set away, which
  // almost always sit in another of the 64 leaves; no leaf runs empty.
  const auto jump = [&](int s) {
    for (std::size_t k = 3 * static_cast<std::size_t>(s);
         k < 3 * static_cast<std::size_t>(s) + 3; ++k) {
      const Vec3 to = moved[k + n / 2];
      moved[k] = {to.x, to.y, 0.5 + (to.z - 0.5) * 0.999};
    }
  };
  jump(0);
  session.move_to(moved);  // warm-up: sizes the refit scratch
  session.evaluate_into(dens, phi);

  // Quiescent read: no other thread is allocating between the probes.
  const long before = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  for (int s = 1; s <= 3; ++s) {
    jump(s);
    session.move_to(moved);
    session.evaluate_into(dens, phi);
  }
  const long after = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(session.stats().refits, session.stats().moves);
  EXPECT_EQ(session.stats().moves, 4u);
  EXPECT_NE(occupancy(), occupancy_before) << "no point changed leaves";

  FmmEvaluator fresh(kernel_instance(), moved, cfg.tree, cfg.fmm);
  const auto want = fresh.evaluate(dens);
  ASSERT_EQ(want.size(), phi.size());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(std::memcmp(&phi[i], &want[i], sizeof(double)), 0)
        << "point " << i << ": " << phi[i] << " vs " << want[i];
}

TEST(FmmAllocations, SteadyStateDynamicsStepIsAllocationFree) {
  // The full engine step -- mover advance, session move, evaluation, energy
  // reduction -- after the step-0 warm-up. Tuning is off here (the drift
  // check itself is allocation-free, but TuneContext construction is not a
  // steady-state cost); the near-frozen leapfrog keeps every move on the
  // refit path, which the final assertion pins.
  dynamics::ParticleSystem ps = dynamics::ParticleSystem::random(
      1000, {{0.5, 0.5, 0.5}, 0.5}, 34);
  dynamics::DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = 32,
                      .domain = {{0.5, 0.5, 0.5}, 0.5}};
  cfg.session.fmm = {.p = 4};
  dynamics::DynamicsEngine engine(std::make_shared<const LaplaceKernel>(),
                                  std::move(ps), cfg);
  dynamics::LeapfrogMover mover({.dt = 1e-6});
  engine.step(mover);  // warm-up: refit scratch + evaluation buffers
  engine.step(mover);

  // Quiescent read: no other thread is allocating between the probes.
  const long before = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  for (int s = 0; s < 4; ++s) engine.step(mover);
  const long after = g_new_calls.load(std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(engine.session().stats().rebuilds, 0u);
  EXPECT_EQ(engine.stats().steps, 6u);
}

}  // namespace
}  // namespace eroof::fmm
