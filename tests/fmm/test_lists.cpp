#include "fmm/lists.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fmm/pointgen.hpp"
#include "util/rng.hpp"

namespace eroof::fmm {
namespace {

struct TreeWithLists {
  Octree tree;
  InteractionLists lists;
};

TreeWithLists make(std::size_t n, std::uint32_t q, std::uint64_t seed,
                   bool clustered = false) {
  util::Rng rng(seed);
  const auto pts = clustered ? gaussian_clusters(n, 3, 0.02, rng)
                             : uniform_cube(n, rng);
  Octree tree(pts, {.max_points_per_box = q});
  InteractionLists lists = build_lists(tree);
  return {std::move(tree), std::move(lists)};
}

TEST(Lists, ULeafContainsItself) {
  const auto [tree, lists] = make(2000, 32, 1);
  for (const int b : tree.leaves()) {
    const auto& u = lists.u[static_cast<std::size_t>(b)];
    EXPECT_NE(std::find(u.begin(), u.end(), b), u.end());
  }
}

TEST(Lists, UMembersAreAdjacentLeaves) {
  const auto [tree, lists] = make(2000, 32, 2, true);
  for (const int b : tree.leaves()) {
    for (const int a : lists.u[static_cast<std::size_t>(b)]) {
      EXPECT_TRUE(tree.node(a).leaf);
      EXPECT_TRUE(boxes_adjacent(tree.node(a).box, tree.node(b).box));
    }
  }
}

TEST(Lists, UIsSymmetric) {
  const auto [tree, lists] = make(3000, 16, 3, true);
  for (const int b : tree.leaves()) {
    for (const int a : lists.u[static_cast<std::size_t>(b)]) {
      const auto& ua = lists.u[static_cast<std::size_t>(a)];
      EXPECT_NE(std::find(ua.begin(), ua.end(), b), ua.end())
          << "U list not symmetric for " << a << " <-> " << b;
    }
  }
}

TEST(Lists, VMembersAreSameLevelNonAdjacentWithAdjacentParents) {
  const auto [tree, lists] = make(3000, 16, 4);
  for (std::size_t b = 0; b < tree.nodes().size(); ++b) {
    const Node& nb = tree.node(static_cast<int>(b));
    for (const int s : lists.v[b]) {
      const Node& ns = tree.node(s);
      EXPECT_EQ(ns.level(), nb.level());
      EXPECT_FALSE(boxes_adjacent(ns.box, nb.box));
      ASSERT_GE(ns.parent, 0);
      ASSERT_GE(nb.parent, 0);
      EXPECT_TRUE(boxes_adjacent(tree.node(ns.parent).box,
                                 tree.node(nb.parent).box));
    }
  }
}

TEST(Lists, VIsSymmetric) {
  // The evaluator's V phase forward-transforms only nodes with a non-empty
  // V list, which covers every source it reads only because V lists are
  // symmetric: check uniform, clustered and coarse trees.
  struct Shape {
    std::size_t n;
    std::uint32_t q;
    std::uint64_t seed;
    bool clustered;
  };
  for (const Shape& sh : {Shape{3000, 16, 5, false}, Shape{3000, 6, 9, true},
                          Shape{700, 64, 11, false}}) {
    const auto [tree, lists] = make(sh.n, sh.q, sh.seed, sh.clustered);
    std::size_t pairs = 0;
    for (std::size_t b = 0; b < tree.nodes().size(); ++b) {
      for (const int s : lists.v[b]) {
        const auto& vs = lists.v[static_cast<std::size_t>(s)];
        EXPECT_NE(std::find(vs.begin(), vs.end(), static_cast<int>(b)),
                  vs.end());
        ++pairs;
      }
    }
    EXPECT_GT(pairs, 0u) << sh.n << " points, q = " << sh.q;
  }
}

TEST(Lists, VListBoundedBy189) {
  const auto [tree, lists] = make(5000, 16, 6);
  for (const auto& v : lists.v) EXPECT_LE(v.size(), 189u);
}

TEST(Lists, WMembersSatisfyDefinition) {
  // W(B): not adjacent to B, strictly finer, parent adjacent to B.
  const auto [tree, lists] = make(4000, 16, 7, true);
  for (const int b : tree.leaves()) {
    const Node& nb = tree.node(b);
    for (const int a : lists.w[static_cast<std::size_t>(b)]) {
      const Node& na = tree.node(a);
      EXPECT_GT(na.level(), nb.level());
      EXPECT_FALSE(boxes_adjacent(na.box, nb.box));
      EXPECT_TRUE(boxes_adjacent(tree.node(na.parent).box, nb.box));
    }
  }
}

TEST(Lists, XIsTransposeOfW) {
  const auto [tree, lists] = make(4000, 16, 8, true);
  // Forward: every W membership appears in the X transpose.
  for (const int a : tree.leaves())
    for (const int b : lists.w[static_cast<std::size_t>(a)]) {
      const auto& xb = lists.x[static_cast<std::size_t>(b)];
      EXPECT_NE(std::find(xb.begin(), xb.end(), a), xb.end());
    }
  // Backward: every X entry has the matching W entry.
  for (std::size_t b = 0; b < tree.nodes().size(); ++b)
    for (const int a : lists.x[b]) {
      const auto& wa = lists.w[static_cast<std::size_t>(a)];
      EXPECT_NE(std::find(wa.begin(), wa.end(), static_cast<int>(b)),
                wa.end());
    }
}

TEST(Lists, ClusteredTreesExerciseWandX) {
  const auto [tree, lists] = make(6000, 16, 9, true);
  std::size_t w_total = 0;
  for (const auto& w : lists.w) w_total += w.size();
  EXPECT_GT(w_total, 0u) << "clustered input should produce W interactions";
}

TEST(Lists, UniformCompleteTreeHasEmptyWandX) {
  util::Rng rng(10);
  const auto pts = uniform_cube(4096, rng);
  Octree tree(pts, {.max_points_per_box = 64,
                    .uniform_depth = Octree::uniform_depth_for(4096, 64)});
  const auto lists = build_lists(tree);
  for (const auto& w : lists.w) EXPECT_TRUE(w.empty());
  for (const auto& x : lists.x) EXPECT_TRUE(x.empty());
}

TEST(Lists, NoDuplicatesInAnyList) {
  const auto [tree, lists] = make(3000, 16, 11, true);
  const auto check = [](const std::vector<std::vector<int>>& all) {
    for (const auto& l : all) {
      std::set<int> s(l.begin(), l.end());
      EXPECT_EQ(s.size(), l.size());
    }
  };
  check(lists.u);
  check(lists.v);
  check(lists.w);
  check(lists.x);
}

// The load-bearing correctness property: for every (target leaf, source
// leaf) pair, the source's points are accounted for exactly once -- either
// directly (source in U(target)), or through exactly one ancestor
// relationship covered by V / W / X / the far-field (an ancestor of source
// in V or W of an ancestor-or-self of target, etc.). Rather than re-derive
// the full theorem, we check the observable consequence used by the
// evaluator: counting each source leaf's points via the phase that covers
// it yields each pair exactly once. This is validated indirectly and
// end-to-end by the FMM-vs-direct accuracy tests; here we check the
// *disjointness* part: a source leaf never appears both in U(B) and under
// a V/W/X covering for the same target B.
TEST(Lists, UAndWAreDisjointPerTarget) {
  const auto [tree, lists] = make(4000, 16, 12, true);
  for (const int b : tree.leaves()) {
    std::set<int> u(lists.u[static_cast<std::size_t>(b)].begin(),
                    lists.u[static_cast<std::size_t>(b)].end());
    for (const int a : lists.w[static_cast<std::size_t>(b)])
      EXPECT_FALSE(u.contains(a));
  }
}

TEST(Lists, VExcludesNearField) {
  const auto [tree, lists] = make(3000, 16, 13);
  for (std::size_t b = 0; b < tree.nodes().size(); ++b) {
    std::set<int> v(lists.v[b].begin(), lists.v[b].end());
    for (const int a : lists.u[b]) EXPECT_FALSE(v.contains(a));
  }
}

}  // namespace
}  // namespace eroof::fmm
