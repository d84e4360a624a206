// Degenerate and adversarial inputs the library must survive.
#include <gtest/gtest.h>

#include "fmm/direct.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

TEST(EdgeCases, AllPointsCoincide) {
  // Degenerate bounding box; K(x,x) == 0 makes all potentials zero.
  const std::vector<Vec3> pts(64, Vec3{0.25, 0.5, 0.75});
  const std::vector<double> dens(64, 1.0);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 16, .max_level = 4},
                  FmmConfig{.p = 4});
  for (const double v : ev.evaluate(dens)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EdgeCases, DuplicatePointsAmongDistinctOnes) {
  util::Rng rng(70);
  auto pts = uniform_cube(512, rng);
  // Duplicate a quarter of the points exactly.
  for (std::size_t i = 0; i < 128; ++i) pts.push_back(pts[i]);
  const auto dens = random_densities(pts.size(), rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 16, .max_level = 6},
                  FmmConfig{.p = 4});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 5e-3);
}

TEST(EdgeCases, MaxLevelCapsDepthOnPathologicalClusters) {
  // A cluster so tight that Q can never be satisfied: max_level must stop
  // the recursion and the evaluation must stay correct (U handles the
  // overfull leaves directly).
  util::Rng rng(71);
  std::vector<Vec3> pts;
  for (int i = 0; i < 512; ++i)
    pts.push_back({0.5 + 1e-9 * rng.normal(), 0.5 + 1e-9 * rng.normal(),
                   0.5 + 1e-9 * rng.normal()});
  for (int i = 0; i < 512; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  const auto dens = random_densities(pts.size(), rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 8, .max_level = 5},
                  FmmConfig{.p = 4});
  EXPECT_LE(ev.tree().max_depth(), 5);
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 5e-3);
}

TEST(EdgeCases, QOfOneBuildsDeepTreeAndStaysCorrect) {
  util::Rng rng(72);
  const auto pts = uniform_cube(256, rng);
  const auto dens = random_densities(256, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 1, .max_level = 8},
                  FmmConfig{.p = 4});
  EXPECT_GT(ev.tree().max_depth(), 2);
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 5e-3);
}

TEST(EdgeCases, CollinearPointsAlongAnAxis) {
  // Zero extent in two dimensions.
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i) pts.push_back({i / 299.0, 0.0, 0.0});
  util::Rng rng(73);
  const auto dens = random_densities(pts.size(), rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 16},
                  FmmConfig{.p = 5});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 1e-3);
}

TEST(EdgeCases, HugeCoordinatesFarFromOrigin) {
  util::Rng rng(74);
  auto pts = uniform_cube(1024, rng);
  for (auto& p : pts) p = p + Vec3{1e6, -1e6, 5e5};
  const auto dens = random_densities(pts.size(), rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 32},
                  FmmConfig{.p = 5});
  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 1e-3);
}

TEST(EdgeCases, SinglePoint) {
  const std::vector<Vec3> one{{0.5, 0.5, 0.5}};
  const std::vector<double> d{3.0};
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, one, {}, FmmConfig{.p = 4});
  const auto phi = ev.evaluate(d);
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_DOUBLE_EQ(phi[0], 0.0);
}

TEST(EdgeCases, EmptyPointSetRejected) {
  const std::vector<Vec3> none;
  const LaplaceKernel kernel;
  EXPECT_THROW(FmmEvaluator(kernel, none, {}, FmmConfig{.p = 4}),
               util::ContractError);
}

// -- the octant convention, pinned -----------------------------------------
//
// A point is assigned to the upper half of an axis when its coordinate is
// >= the box center: each box owns the half-open cell [lo, center) x
// [center, hi] per axis, while Box::contains (and hence the domain check)
// is closed. These tests freeze that convention: refit and every fixed-
// domain consumer depend on rebinning landing points exactly where the
// original build put them.

TEST(EdgeCases, PointOnSplitPlaneGoesToTheUpperOctant) {
  // One point per octant plus one exactly on the center split planes; with
  // Q=2 the root splits once and the center point must share octant 7 (the
  // +++ octant) with the (0.75, 0.75, 0.75) point.
  std::vector<Vec3> pts;
  for (int o = 0; o < 8; ++o)
    pts.push_back({o & 1 ? 0.75 : 0.25, o & 2 ? 0.75 : 0.25,
                   o & 4 ? 0.75 : 0.25});
  pts.push_back({0.5, 0.5, 0.5});
  const Octree tree(pts, {.max_points_per_box = 2,
                          .domain = {{0.5, 0.5, 0.5}, 0.5}});
  ASSERT_EQ(tree.max_depth(), 1);
  int with_two = -1;
  for (const int b : tree.leaves())
    if (tree.node(b).num_points() == 2) {
      EXPECT_EQ(with_two, -1) << "only octant 7 may hold two points";
      with_two = b;
    }
  ASSERT_NE(with_two, -1);
  // Both residents of that leaf sit at coordinates >= the root center.
  for (std::uint32_t i = tree.node(with_two).point_begin;
       i < tree.node(with_two).point_end; ++i) {
    EXPECT_GE(tree.points()[i].x, 0.5);
    EXPECT_GE(tree.points()[i].y, 0.5);
    EXPECT_GE(tree.points()[i].z, 0.5);
  }
}

TEST(EdgeCases, DomainBoundaryPointsAreAcceptedAndBinHighest) {
  // Box::contains is closed: a point exactly on the domain's max corner is
  // legal input and cascades through the >=-goes-up rule into the highest
  // octant at every level.
  std::vector<Vec3> pts;
  util::Rng rng(79);
  for (int i = 0; i < 63; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  pts.push_back({1.0, 1.0, 1.0});
  const Octree tree(pts, {.max_points_per_box = 16,
                          .domain = {{0.5, 0.5, 0.5}, 0.5}});
  // Locate the corner point in permuted order; its leaf's box max corner
  // must be the domain's max corner at every enclosing level.
  int pos = -1;
  for (std::size_t i = 0; i < tree.points().size(); ++i)
    if (tree.original_index()[i] == 63) pos = static_cast<int>(i);
  ASSERT_NE(pos, -1);
  for (const int b : tree.leaves()) {
    const Node& nd = tree.node(b);
    if (static_cast<std::uint32_t>(pos) >= nd.point_begin &&
        static_cast<std::uint32_t>(pos) < nd.point_end) {
      EXPECT_DOUBLE_EQ(nd.box.center.x + nd.box.half, 1.0);
      EXPECT_DOUBLE_EQ(nd.box.center.y + nd.box.half, 1.0);
      EXPECT_DOUBLE_EQ(nd.box.center.z + nd.box.half, 1.0);
    }
  }
  // A point just outside the closed domain is rejected.
  pts.push_back({1.0 + 1e-12, 0.5, 0.5});
  EXPECT_THROW(Octree(pts, {.max_points_per_box = 16,
                            .domain = {{0.5, 0.5, 0.5}, 0.5}}),
               util::ContractError);
}

// -- degenerate trees --------------------------------------------------------
//
// The phase sweeps consume the octree and its interaction lists as-is, so
// the structural invariants they lean on (leaves are never empty; every v/w
// source carries an expansion slot) and the pathological shapes (depth-0
// single leaf, a single-occupied-octant chain) get explicit coverage.

TEST(EdgeCases, LeavesAreNeverEmpty) {
  // The octree only materializes non-empty children (including during
  // balance ripple-splitting), so every leaf holds at least one point --
  // the invariant that lets the U sweep run over every leaf without
  // empties. Checked across adversarial distributions.
  util::Rng rng(75);
  std::vector<std::vector<Vec3>> sets;
  sets.push_back(uniform_cube(777, rng));
  {
    std::vector<Vec3> corner;
    for (int i = 0; i < 400; ++i)
      corner.push_back({1e-4 * rng.uniform(), 1e-4 * rng.uniform(),
                        1e-4 * rng.uniform()});
    sets.push_back(std::move(corner));
  }
  {
    std::vector<Vec3> mixed;
    for (int i = 0; i < 64; ++i)
      mixed.push_back({0.5 + 1e-7 * rng.normal(), 0.5 + 1e-7 * rng.normal(),
                       0.5 + 1e-7 * rng.normal()});
    for (int i = 0; i < 64; ++i)
      mixed.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    sets.push_back(std::move(mixed));
  }
  for (const auto& pts : sets) {
    const Octree tree(pts, {.max_points_per_box = 8, .max_level = 6});
    for (const int b : tree.leaves())
      EXPECT_GE(tree.node(b).num_points(), 1u);
    // And every interaction-list source of every node has points behind it.
    const auto lists = build_lists(tree);
    for (std::size_t b = 0; b < tree.nodes().size(); ++b)
      for (const int a : lists.u[b])
        EXPECT_GE(tree.node(a).num_points(), 1u);
  }
}

TEST(EdgeCases, SingleLeafDepthZeroTreeMatchesDirectSum) {
  // Few points, large Q: the tree is one root leaf at level 0. No node
  // carries an expansion, so only the U sweep contributes.
  util::Rng rng(76);
  const auto pts = uniform_cube(24, rng);
  const auto dens = random_densities(24, rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 64}, FmmConfig{.p = 4});
  ASSERT_EQ(ev.tree().max_depth(), 0);
  ASSERT_EQ(ev.tree().leaves().size(), 1u);

  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 1e-9);
}

TEST(EdgeCases, AllPointsInOneOctantChainMatchesDirectSum) {
  // Nearly every point inside one octant of one octant ...: a lone anchor
  // point at the far corner pins the (point-fitted) root box, so the upper
  // tree is a chain of levels holding almost nothing but the cluster's
  // octant and most interaction lists are empty. The sweeps must still
  // reach the direct sum's accuracy.
  util::Rng rng(78);
  std::vector<Vec3> pts;
  for (int i = 0; i < 600; ++i)
    pts.push_back({0.04 * rng.uniform(), 0.04 * rng.uniform(),
                   0.04 * rng.uniform()});
  pts.push_back({0.95, 0.95, 0.95});
  const auto dens = random_densities(pts.size(), rng);
  const LaplaceKernel kernel;
  FmmEvaluator ev(kernel, pts, {.max_points_per_box = 16, .max_level = 8},
                  FmmConfig{.p = 4});
  EXPECT_GE(ev.tree().max_depth(), 4);

  const auto phi = ev.evaluate(dens);
  const auto ref = direct_sum(kernel, pts, pts, dens);
  EXPECT_LT(rel_l2_error(phi, ref), 5e-3);
}

}  // namespace
}  // namespace eroof::fmm
