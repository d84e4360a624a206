#include "fmm/plan.hpp"

#include <utility>

#include "util/require.hpp"

namespace eroof::fmm {
namespace {

std::shared_ptr<const Kernel> require_kernel(
    std::shared_ptr<const Kernel> kernel) {
  EROOF_REQUIRE_MSG(kernel != nullptr, "FmmPlan needs a kernel");
  return kernel;
}

}  // namespace

FmmPlan::FmmPlan(std::shared_ptr<const Kernel> kernel, double root_half,
                 int max_depth, FmmConfig cfg)
    : kernel_(require_kernel(std::move(kernel))),
      root_half_(root_half),
      max_depth_(max_depth),
      ops_(*kernel_, root_half, max_depth, cfg) {
  EROOF_REQUIRE(root_half_ > 0);
  EROOF_REQUIRE(max_depth_ >= 0);
}

std::shared_ptr<const Kernel> FmmPlan::borrow_kernel(const Kernel& kernel) {
  return std::shared_ptr<const Kernel>(std::shared_ptr<const void>{}, &kernel);
}

std::shared_ptr<FmmPlan> FmmPlan::for_tree(std::shared_ptr<const Kernel> kernel,
                                           const Octree& tree, FmmConfig cfg) {
  return std::make_shared<FmmPlan>(std::move(kernel), tree.domain().half,
                                   tree.max_depth(), cfg);
}

}  // namespace eroof::fmm
