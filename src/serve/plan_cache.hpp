// The serving plan cache: (kernel, accuracy q, tree depth) -> FmmPlan.
//
// A plan is everything reusable across requests that resolve to the same
// key: per-level operators and the shared M2L bank. A cache hit therefore
// skips operator construction; the per-request remainder (tree, lists,
// arenas, the solve itself) is what the worker still executes. The
// server's schedule cache is a second LruCache keyed by the plan key plus
// the point count -- not this one, because the profiled phase workloads
// depend on the request size, so one plan legitimately maps to several
// schedules.
//
// Key contents: kernel spec (kind + parameter bits), surface order p,
// max points per box Q, tree depth, and the domain bits -- every input the
// plan's bitwise output contract depends on. Doubles enter as exact bit
// patterns, so distinct parameters never alias.
#pragma once

#include <memory>
#include <string>

#include "fmm/kernel.hpp"
#include "fmm/plan.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"

namespace eroof::serve {

/// Instantiates the kernel a spec describes. Each plan owns its kernel
/// instance; kernels are stateless, so equality-of-spec implies
/// equality-of-behavior.
std::shared_ptr<const fmm::Kernel> make_kernel(const KernelSpec& spec);

/// The cache key. Deterministic, human-readable prefix + exact parameter
/// bits (hex-encoded doubles).
std::string plan_cache_key(const KernelSpec& spec, int p,
                           std::uint32_t max_points_per_box, int depth,
                           const fmm::Box& domain);

using PlanCache = LruCache<fmm::FmmPlan>;

}  // namespace eroof::serve
