// Immutable, shareable FMM setup: the expensive, request-independent part
// of an FmmEvaluator's construction, split out so it can be built once and
// evaluated against concurrently (the serving plan cache, DESIGN.md §12).
//
// A plan holds the kernel, the root half-width, the depth, and everything
// that depends only on (kernel, accuracy p, root box size, tree depth): the
// per-level UC2E/DC2E/M2M/L2L operators and the shared M2L spectrum bank
// (Operators) -- by far the dominant construction cost.
//
// What a plan deliberately does NOT contain: the tree, the interaction
// lists, the point mirrors, the expansion arenas, or any scratch -- those
// are per-request state owned by each FmmEvaluator. Two workers evaluating
// against one plan share only immutable data, so no synchronization is
// needed beyond the shared_ptr.
//
// Exactness across depths: operators are built (or, for homogeneous
// kernels, rescaled) per level independently, so a plan built for depth D
// serves any tree of depth <= D with levels bitwise identical to a fresh
// shallower build. The evaluator therefore only checks max_depth() as an
// upper bound -- and root_half() for exact equality, since the level
// geometry scales with it.
#pragma once

#include <memory>

#include "fmm/kernel.hpp"
#include "fmm/octree.hpp"
#include "fmm/operators.hpp"

namespace eroof::fmm {

/// The immutable shareable setup. Construction builds the operators (and
/// bumps the "fmm.operators.builds" trace counter -- the regression hook
/// proving cached plans skip the rebuild).
class FmmPlan {
 public:
  FmmPlan(std::shared_ptr<const Kernel> kernel, double root_half,
          int max_depth, FmmConfig cfg = {});

  /// Non-owning handle for a caller-owned kernel (the legacy FmmEvaluator
  /// API's lifetime contract: the kernel outlives the plan).
  static std::shared_ptr<const Kernel> borrow_kernel(const Kernel& kernel);

  /// Plan matching one concrete tree; the legacy wrapper path.
  static std::shared_ptr<FmmPlan> for_tree(std::shared_ptr<const Kernel> kernel,
                                           const Octree& tree,
                                           FmmConfig cfg = {});

  const Kernel& kernel() const { return *kernel_; }
  const FmmConfig& config() const { return ops_.config(); }
  double root_half() const { return root_half_; }
  int max_depth() const { return max_depth_; }
  const Operators& operators() const { return ops_; }

 private:
  std::shared_ptr<const Kernel> kernel_;
  double root_half_;
  int max_depth_;
  Operators ops_;
};

}  // namespace eroof::fmm
