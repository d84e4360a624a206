// Incremental FMM session for time-stepping workloads (DESIGN.md §13).
//
// A one-shot FmmEvaluator pays for its full setup -- octree, interaction
// lists, node slots, arenas, and (without a shared plan) the per-level
// operators -- on every construction. A dynamics loop issues a *sequence*
// of evaluations over positions that drift a little each step, so almost
// all of that setup is redundant. FmmSession persists it:
//
//   * small drift   -> Octree::try_refit re-bins the moved points into the
//                      existing structure; lists, slots, arenas and spectra
//                      survive untouched, and the step performs zero heap
//                      allocations;
//   * big drift     -> full tree + evaluator rebuild, but the FmmPlan
//                      (operators + M2L bank, the dominant cost) is reused
//                      as long as the new depth fits under the plan's;
//   * deeper tree   -> only then is a new plan built.
//
// Invariant, tested differentially: after every move_to, evaluate() is
// bitwise identical to a fresh FmmEvaluator built from scratch over the
// same positions, across OMP thread counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fmm/evaluator.hpp"
#include "fmm/kernel.hpp"
#include "fmm/octree.hpp"
#include "fmm/plan.hpp"

namespace eroof::fmm {

class FmmSession {
 public:
  struct Config {
    /// Tree parameters. `tree.domain.half` must be > 0: a fixed protocol
    /// domain is what makes the tree geometry (and the plan's per-level
    /// operators) step-invariant -- without it every step would re-derive a
    /// different bounding cube and nothing could be reused.
    Octree::Params tree;
    FmmConfig fmm;
  };

  FmmSession(std::shared_ptr<const Kernel> kernel,
             std::span<const Vec3> points, Config cfg);

  /// Moves the session to new positions (same particle count, all inside
  /// the domain). Returns true when the move was absorbed by an in-place
  /// refit -- the steady-state path, allocation-free after step 0 -- and
  /// false when it forced a rebuild (tree structure changed). Either way
  /// the session afterwards evaluates these positions exactly.
  bool move_to(std::span<const Vec3> positions);

  /// Potentials for the current positions; caller order, allocation-free
  /// after the first call on the current evaluator.
  void evaluate_into(std::span<const double> densities,
                     std::span<double> out);
  std::vector<double> evaluate(std::span<const double> densities);

  std::size_t n_points() const { return evaluator_->tree().points().size(); }
  FmmEvaluator& evaluator() { return *evaluator_; }
  const FmmEvaluator& evaluator() const { return *evaluator_; }
  const std::shared_ptr<const FmmPlan>& plan() const { return plan_; }
  const Config& config() const { return cfg_; }

  struct Stats {
    std::uint64_t moves = 0;
    std::uint64_t refits = 0;    ///< moves absorbed in place
    std::uint64_t rebuilds = 0;  ///< moves that rebuilt tree + evaluator
    std::uint64_t plan_builds = 0;  ///< operator builds (incl. the initial)
  };
  const Stats& stats() const { return stats_; }

 private:
  void rebuild(std::span<const Vec3> positions);

  Config cfg_;
  std::shared_ptr<const Kernel> kernel_;
  std::shared_ptr<const FmmPlan> plan_;
  /// optional only for emplace-rebuild; engaged from construction on.
  std::optional<FmmEvaluator> evaluator_;
  Stats stats_;
};

}  // namespace eroof::fmm
