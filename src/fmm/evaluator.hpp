// The kernel-independent FMM evaluator (paper Section III-B).
//
// Computes f(x_i) = sum_j K(x_i, y_j) s(y_j) over one point set in the six
// phases the paper profiles:
//
//   UP    P2M at leaves, M2M up the tree (upward equivalent densities)
//   U     direct P2P over adjacent leaves        (compute bound)
//   V     FFT-accelerated M2L translations       (memory bound)
//   W     M2P: W-node equivalent density -> leaf targets
//   X     P2L: X-node sources -> downward check surfaces
//   DOWN  DC2E solves + L2L down the tree + L2P at leaves
//
// O(N) total work with accuracy controlled by the surface order p.
//
// Performance architecture: per-node expansion state lives in contiguous
// per-phase arenas indexed by node slot; points are mirrored once into SoA
// coordinate arrays; surface points come from per-level templates
// (center + offset); and every phase loop runs allocation-free against
// per-thread Workspace scratch, with kernel evaluation batched through
// Kernel::eval_batch (one virtual call per tile, simd inner loops). The V
// phase works on Hermitian half spectra and transforms two real grids per
// complex FFT, pairing consecutive nodes of a level's V-active list. The U
// phase is mutual: each unordered pair of adjacent leaves is evaluated once
// through Kernel::eval_mutual and scattered into both leaves, and each
// leaf's self block once as its upper triangle (DESIGN.md section 7).
//
// Execution model (DESIGN.md section 11): six bulk-synchronous sweeps in
// the paper's phase order, one OpenMP loop over the nodes of a level or
// the leaves per step, with a barrier between steps; U runs its self
// blocks, then one loop per color class of a structure-only pair schedule
// (each class a matching, so no two of its blocks share a leaf). Phases
// never overlap, so each phase span is that phase's wall time and a
// per-phase DVFS setting applies to exactly one phase's work. Every output
// element receives the same floating-point operation sequence at any thread
// count, so results, stats() and trace counter totals are thread-count
// invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fmm/kernel.hpp"
#include "fmm/lists.hpp"
#include "fmm/octree.hpp"
#include "fmm/operators.hpp"
#include "fmm/plan.hpp"

namespace eroof::fmm {

/// Structural work tallies from one evaluation, per phase. These are the
/// ground truth the GPU execution profile is cross-checked against. V
/// tallies count the paper's full-grid work -- one forward FFT per node of
/// a level and one inverse per V target, grid_size() complex multiplies per
/// V pair -- not the host's: the host pairs two real grids per complex FFT,
/// forward-transforms only nodes with a V list, and multiplies Hermitian
/// half spectra of spectrum_size() values.
struct FmmStats {
  struct Phase {
    double kernel_evals = 0;  ///< pointwise K(x,y) evaluations
    double pair_count = 0;    ///< list pairs processed
    double ffts = 0;          ///< forward + inverse m^3 grid FFTs
    double hadamard_cmuls = 0;  ///< complex multiplies in V-phase products
    double solve_matvecs = 0;   ///< n_surf^2-sized dense matvec applications
  };
  Phase up, u, v, w, x, down;
};

/// The evaluator. Construction builds the tree and the interaction lists
/// (per-request state) and either builds or shares an FmmPlan (the
/// operators); `evaluate` can then be called
/// repeatedly with different source densities (e.g. inside a time-stepping
/// loop) -- repeat calls reuse all arenas and scratch without reallocating.
class FmmEvaluator {
 public:
  /// Legacy API: builds a private plan for this tree (kernel must outlive
  /// the evaluator). A thin wrapper over the plan-sharing constructor.
  FmmEvaluator(const Kernel& kernel, std::span<const Vec3> points,
               Octree::Params tree_params = {}, FmmConfig cfg = {});

  /// Shares an existing (possibly cached) plan: no operator construction
  /// happens here. The tree must match the plan's geometry -- domain
  /// half-width bitwise equal, depth <= plan depth -- and results are
  /// bitwise identical to a fresh evaluator built for the same tree.
  /// Multiple evaluators may evaluate against one plan concurrently.
  FmmEvaluator(std::shared_ptr<const FmmPlan> plan, Octree tree);

  /// Same, building the tree here from `points`.
  FmmEvaluator(std::shared_ptr<const FmmPlan> plan,
               std::span<const Vec3> points, Octree::Params tree_params = {});

  /// Potentials at every point for the given densities; both vectors are in
  /// the caller's original point order. Self-interactions excluded.
  ///
  /// When a trace::TraceSession is installed, each phase emits exactly one
  /// span (category "fmm.phase", names UP/U/V/W/X/DOWN) carrying its
  /// FmmStats tallies as args, plus registry totals "fmm.<phase>.<tally>",
  /// all nested under one "evaluate" span (category "fmm"). Phases run one
  /// after another, so each phase span is that phase's wall time.
  std::vector<double> evaluate(std::span<const double> densities);

  /// evaluate() without the return-value allocation: potentials are written
  /// into `out` (caller order, sized like `densities`). After the first
  /// call -- which sizes internal buffers and per-thread workspaces --
  /// repeat calls perform no heap allocation,
  /// which is what lets a time-stepping session run steady-state
  /// zero-allocation. Bitwise identical to evaluate().
  void evaluate_into(std::span<const double> densities,
                     std::span<double> out);

  /// Re-bins moved positions into the existing tree via Octree::try_refit.
  /// On success (structure unchanged) the interaction lists, U pair
  /// schedule, V node lists, node slots, arenas and spectra -- all purely
  /// structural -- are kept as-is; only the SoA coordinate mirror, the U
  /// pair costs and the occupancy-dependent structural stats are
  /// refreshed in place, and subsequent
  /// evaluations are bitwise identical to a fresh evaluator built from
  /// `new_points`. On false the evaluator is unchanged (caller rebuilds).
  /// Allocation-free after the tree's first refit.
  bool try_refit(std::span<const Vec3> new_points);

  const Octree& tree() const { return tree_; }
  const InteractionLists& lists() const { return lists_; }
  const Operators& operators() const { return plan_->operators(); }
  const Kernel& kernel() const { return plan_->kernel(); }
  const std::shared_ptr<const FmmPlan>& plan() const { return plan_; }

  /// Bytes of the V phase's half-spectrum arena (0 on the dense path).
  std::size_t spectra_bytes() const {
    return (spec_re_.size() + spec_im_.size()) * sizeof(double);
  }

  /// Tallies of one evaluate() call. The tallies are purely structural
  /// (tree + lists + operators), so they are computed at construction and
  /// after every refit by one serial pass in canonical phase order -- the
  /// explicit commit order that keeps stats() bitwise identical across
  /// thread counts -- and evaluate() leaves them as they are. U counts
  /// directed evaluations (the paper's one-way kernel, which the GPU
  /// profile models), about twice the pairs the mutual sweep evaluates.
  const FmmStats& stats() const { return stats_; }

  /// One-shot evaluation with *distinct* target and source sets (the
  /// general form of the paper's eq. 10). Exploits linearity: targets
  /// enter the tree as zero-density sources, so they steer the spatial
  /// decomposition but contribute nothing; their potentials are read back
  /// out. Self-interactions (a target coinciding with a source) are
  /// excluded, as in direct_sum.
  static std::vector<double> evaluate_at(const Kernel& kernel,
                                         std::span<const Vec3> targets,
                                         std::span<const Vec3> sources,
                                         std::span<const double> densities,
                                         Octree::Params tree_params = {},
                                         FmmConfig cfg = {});

 private:
  /// Per-thread scratch so phase loops never touch the heap: check/value
  /// surface buffers, materialized SoA surface points, and the V-phase FFT
  /// grid + split-complex half-spectrum accumulators. `vals`, `acc_re` and
  /// `acc_im` hold two halves, one per node of a V pair.
  struct Workspace {
    std::vector<double> check, vals;
    std::vector<double> tx, ty, tz;  // target-side surface points
    std::vector<double> sx, sy, sz;  // source-side surface points
    std::vector<fft::cplx> grid;
    std::vector<double> acc_re, acc_im;
  };

  // -- per-node phase bodies ----------------------------------------------
  void node_up(int b, const double* dens);
  void v_pair_forward(int a, int b);
  void v_accumulate(int b, double* acc_re, double* acc_im);
  void v_pair_hadamard(int a, int b);
  void node_v_dense(int b);
  void node_x(int b, const double* dens);
  void node_down(int b);
  void leaf_l2p(int b, double* phi);
  void u_block(int b, int a, const double* dens, double* phi);
  void leaf_w(int b, double* phi);

  // -- the phase sweeps ---------------------------------------------------
  void evaluate_phases(std::span<const double> dens, std::span<double> phi);
  void upward_pass(std::span<const double> dens);
  void v_phase();
  void x_phase(std::span<const double> dens);
  void downward_pass();
  void l2p_pass(std::span<double> phi);
  void u_pass(std::span<const double> dens, std::span<double> phi);
  void w_pass(std::span<double> phi);

  void init();  ///< common construction tail of all constructors
  void build_u_schedule();
  void fill_u_costs();
  std::size_t u_cut(std::size_t begin, std::size_t end, std::uint64_t t,
                    std::uint64_t n_threads) const;
  void build_v_schedule();

  /// The canonical serial tally pass (see stats()).
  FmmStats compute_structural_stats() const;

  void ensure_workspaces();
  Workspace& workspace();

  /// Shorthands for the plan's shared immutable pieces.
  const Operators& ops() const { return plan_->operators(); }
  const Kernel& kern() const { return plan_->kernel(); }

  /// Arena views; `b` must be a node at level >= 2 (slot_[b] >= 0).
  std::span<double> up_equiv(int b) {
    return {up_equiv_.data() +
                static_cast<std::size_t>(slot_[static_cast<std::size_t>(b)]) *
                    ops().n_surf(),
            ops().n_surf()};
  }
  std::span<double> down_check(int b) {
    return {down_check_.data() +
                static_cast<std::size_t>(slot_[static_cast<std::size_t>(b)]) *
                    ops().n_surf(),
            ops().n_surf()};
  }
  std::span<double> down_equiv(int b) {
    return {down_equiv_.data() +
                static_cast<std::size_t>(slot_[static_cast<std::size_t>(b)]) *
                    ops().n_surf(),
            ops().n_surf()};
  }

  /// SoA view of the tree-order point range [begin, end).
  PointBlock point_block(std::uint32_t begin, std::uint32_t end) const {
    return {px_.data() + begin, py_.data() + begin, pz_.data() + begin,
            end - begin};
  }

  // The shared immutable setup (operators, config) and the per-request
  // tree + lists. plan_ is set by every constructor before init() runs.
  std::shared_ptr<const FmmPlan> plan_;
  Octree tree_;
  InteractionLists lists_;
  FmmStats stats_;

  // SoA mirror of the tree-order points (rebuilt in place by try_refit).
  std::vector<double> px_, py_, pz_;

  // evaluate_into's tree-order density/potential staging, sized on first
  // call and reused so steady-state evaluation never touches the heap.
  std::vector<double> eval_dens_, eval_phi_;

  // Contiguous per-phase arenas: one n_surf slot per node at level >= 2
  // (shallower nodes carry no expansions). slot_[node] is the arena slot,
  // -1 for nodes without one.
  std::vector<int> slot_;
  std::vector<double> up_equiv_, down_check_, down_equiv_;

  // The U phase's pair schedule: every unordered pair {b, a} (b < a) of
  // distinct U-list leaves, greedily edge-colored in (b, a) order into
  // matchings and stored by color as CSR (pairs of color c occupy
  // [u_color_begin_[c], u_color_begin_[c + 1])). Structure only, so refits
  // keep it. u_cost_prefix_[k] is the sum of n_b * n_a over pairs [0, k):
  // each class is cut into per-thread ranges of equal cost. Occupancy
  // moves with every refit, which refills it in place.
  std::vector<std::pair<int, int>> u_pairs_;
  std::vector<std::size_t> u_color_begin_;
  std::vector<std::uint64_t> u_cost_prefix_;

  // Nodes with non-empty X lists (most have none; the X phase iterates
  // only these).
  std::vector<int> x_targets_;

  // The V phase's node lists: per level, the nodes with a non-empty V list
  // in level order, as CSR (level l occupies
  // [v_level_begin_[l], v_level_begin_[l + 1]) of v_nodes_). V lists are
  // symmetric, so no other node's spectrum is ever read. pos_in_level_ is a
  // node's position in its level's list; consecutive positions (2q, 2q + 1)
  // share one forward and one inverse FFT. Structure only, so refits keep
  // them.
  std::vector<int> v_nodes_;
  std::vector<std::size_t> v_level_begin_;
  std::vector<std::size_t> pos_in_level_;
  // Split-complex half spectra of the widest level's V-active nodes,
  // spectrum_size() each, reused across levels and calls.
  std::vector<double> spec_re_, spec_im_;

  std::vector<Workspace> workspaces_;
};

}  // namespace eroof::fmm
