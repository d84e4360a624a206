#include "fmm/session.hpp"

#include <utility>

#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::fmm {

FmmSession::FmmSession(std::shared_ptr<const Kernel> kernel,
                       std::span<const Vec3> points, Config cfg)
    : cfg_(cfg), kernel_(std::move(kernel)) {
  EROOF_REQUIRE_MSG(kernel_ != nullptr, "null kernel");
  EROOF_REQUIRE_MSG(cfg_.tree.domain.half > 0,
                    "FmmSession requires a fixed domain (tree.domain)");
  rebuild(points);
}

bool FmmSession::move_to(std::span<const Vec3> positions) {
  ++stats_.moves;
  // eroof: hot-begin (steady-state move: in-place refit attempt)
  const bool refitted = evaluator_->try_refit(positions);
  // eroof: hot-end
  if (refitted) {
    ++stats_.refits;
    trace::counter_add("fmm.session.refits", 1.0);
    return true;
  }
  rebuild(positions);
  ++stats_.rebuilds;
  trace::counter_add("fmm.session.rebuilds", 1.0);
  return false;
}

// eroof: cold (rebuild slow path: full tree/plan reconstruction allocates
// by design and is amortized across steps; the steady-state contract is
// the refit path)
void FmmSession::rebuild(std::span<const Vec3> positions) {
  Octree tree(positions, cfg_.tree);
  if (!plan_ || tree.max_depth() > plan_->max_depth()) {
    // Operators depend only on (kernel, p, root half, depth), so the plan
    // survives any rebuild that does not deepen the tree; this branch is
    // the initial build or a depth increase.
    plan_ = std::make_shared<const FmmPlan>(kernel_, tree.domain().half,
                                            tree.max_depth(), cfg_.fmm);
    ++stats_.plan_builds;
    trace::counter_add("fmm.session.plan_builds", 1.0);
  }
  evaluator_.emplace(plan_, std::move(tree));
}

void FmmSession::evaluate_into(std::span<const double> densities,
                               std::span<double> out) {
  evaluator_->evaluate_into(densities, out);
}

std::vector<double> FmmSession::evaluate(std::span<const double> densities) {
  return evaluator_->evaluate(densities);
}

}  // namespace eroof::fmm
