#include "fmm/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::fmm {
namespace {

constexpr int kMinLevel = 2;  // expansions exist from this level down

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int thread_index() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

int team_size() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// Mirrors one phase's tallies into the session's counter registry as
/// "fmm.<phase>.<tally>" so regression tests can compare runs bit-for-bit.
// eroof: cold (trace emission helper: only called with an installed
// session; the key strings are the accepted cost of tracing)
void add_phase_counters(const char* phase, const FmmStats::Phase& p) {
  const std::string prefix = std::string("fmm.") + phase + ".";
  trace::counter_add(prefix + "kernel_evals", p.kernel_evals);
  trace::counter_add(prefix + "pair_count", p.pair_count);
  trace::counter_add(prefix + "ffts", p.ffts);
  trace::counter_add(prefix + "hadamard_cmuls", p.hadamard_cmuls);
  trace::counter_add(prefix + "solve_matvecs", p.solve_matvecs);
}

/// Annotates a finished phase span with the phase's tallies and mirrors them
/// into the counter registry.
void record_phase(trace::ScopedSpan& span, const char* phase,
                  const FmmStats::Phase& p) {
  if (!span.active()) return;
  span.arg("kernel_evals", p.kernel_evals);
  span.arg("pair_count", p.pair_count);
  span.arg("ffts", p.ffts);
  span.arg("hadamard_cmuls", p.hadamard_cmuls);
  span.arg("solve_matvecs", p.solve_matvecs);
  add_phase_counters(phase, p);
}

}  // namespace

FmmEvaluator::FmmEvaluator(const Kernel& kernel, std::span<const Vec3> points,
                           Octree::Params tree_params, FmmConfig cfg)
    : tree_(points, tree_params), lists_(build_lists(tree_)) {
  plan_ = FmmPlan::for_tree(FmmPlan::borrow_kernel(kernel), tree_, cfg);
  init();
}

FmmEvaluator::FmmEvaluator(std::shared_ptr<const FmmPlan> plan, Octree tree)
    : plan_(std::move(plan)),
      tree_(std::move(tree)),
      lists_(build_lists(tree_)) {
  EROOF_REQUIRE_MSG(plan_ != nullptr, "null plan");
  // Bitwise equality: per-level operator geometry scales with the root
  // half-width, so anything but the exact same domain silently changes
  // results. Depth is only an upper bound -- levels are built/rescaled
  // independently, so a deeper plan's shallow levels are identical to a
  // fresh shallower build.
  EROOF_REQUIRE_MSG(tree_.domain().half == plan_->root_half(),
                    "tree domain does not match the plan");
  EROOF_REQUIRE_MSG(tree_.max_depth() <= plan_->max_depth(),
                    "tree deeper than the plan");
  init();
}

FmmEvaluator::FmmEvaluator(std::shared_ptr<const FmmPlan> plan,
                           std::span<const Vec3> points,
                           Octree::Params tree_params)
    : FmmEvaluator(std::move(plan), Octree(points, tree_params)) {}

void FmmEvaluator::init() {
  const auto pts = tree_.points();
  px_.resize(pts.size());
  py_.resize(pts.size());
  pz_.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    px_[i] = pts[i].x;
    py_[i] = pts[i].y;
    pz_[i] = pts[i].z;
  }

  const auto& nodes = tree_.nodes();
  std::size_t n_slots = 0;
  slot_.assign(nodes.size(), -1);
  for (std::size_t b = 0; b < nodes.size(); ++b)
    if (nodes[b].level() >= kMinLevel) slot_[b] = static_cast<int>(n_slots++);

  const std::size_t ns = ops().n_surf();
  up_equiv_.resize(n_slots * ns);
  down_check_.resize(n_slots * ns);
  down_equiv_.resize(n_slots * ns);

  // X targets: nodes with work to do. A node below kMinLevel can never be
  // an X target (its W-dual would be adjacent to everything), so every
  // target has an arena slot; the slot check is belt and braces.
  for (std::size_t b = 0; b < nodes.size(); ++b)
    if (!lists_.x[b].empty() && slot_[b] >= 0)
      x_targets_.push_back(static_cast<int>(b));

  build_v_schedule();
  build_u_schedule();
  stats_ = compute_structural_stats();
}

void FmmEvaluator::build_u_schedule() {
  // Unordered pairs of distinct U-list leaves in (b, a) order: U lists are
  // sorted by node id, so walking the nodes in id order yields it directly.
  const std::size_t n_nodes = tree_.nodes().size();
  std::vector<std::pair<int, int>> pairs;
  std::size_t max_degree = 0;
  for (std::size_t b = 0; b < n_nodes; ++b) {
    const auto& ub = lists_.u[b];
    const int bi = static_cast<int>(b);
    std::size_t degree = 0;
    for (const int a : ub) {
      if (a == bi) continue;
      ++degree;
      // The mutual sweep scatters each block into both leaves, so it covers
      // exactly the directed U work only if adjacency is symmetric.
      const auto& ua = lists_.u[static_cast<std::size_t>(a)];
      EROOF_REQUIRE_MSG(std::binary_search(ua.begin(), ua.end(), bi),
                        "U lists are not symmetric");
      if (a > bi) pairs.emplace_back(bi, a);
    }
    max_degree = std::max(max_degree, degree);
  }

  // Greedy edge coloring: each pair takes the smallest color neither leaf
  // has used yet. Each leaf has at most max_degree - 1 other pairs, so some
  // color below 2 * max_degree - 1 is always free, and `words` 64-bit
  // words per leaf hold every color that can be taken.
  const std::size_t words = max_degree / 32 + 1;
  std::vector<std::uint64_t> used(n_nodes * words, 0);
  std::vector<std::size_t> color(pairs.size());
  std::size_t n_colors = 0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    std::uint64_t* ub = &used[static_cast<std::size_t>(pairs[k].first) * words];
    std::uint64_t* ua =
        &used[static_cast<std::size_t>(pairs[k].second) * words];
    std::size_t w = 0;
    while (~(ub[w] | ua[w]) == 0) ++w;
    const std::size_t bit =
        static_cast<std::size_t>(std::countr_zero(~(ub[w] | ua[w])));
    ub[w] |= std::uint64_t{1} << bit;
    ua[w] |= std::uint64_t{1} << bit;
    color[k] = w * 64 + bit;
    n_colors = std::max(n_colors, color[k] + 1);
  }

  // CSR by color; a stable scatter keeps (b, a) order within each class.
  u_color_begin_.assign(n_colors + 1, 0);
  for (const std::size_t c : color) ++u_color_begin_[c + 1];
  for (std::size_t c = 0; c < n_colors; ++c)
    u_color_begin_[c + 1] += u_color_begin_[c];
  std::vector<std::size_t> next(u_color_begin_.begin(),
                                u_color_begin_.end() - 1);
  u_pairs_.resize(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k)
    u_pairs_[next[color[k]]++] = pairs[k];
  u_cost_prefix_.resize(u_pairs_.size() + 1);
  fill_u_costs();
}

void FmmEvaluator::fill_u_costs() {
  // eroof: hot-begin (refit: refill the pair-cost prefix sums in place)
  u_cost_prefix_[0] = 0;
  for (std::size_t k = 0; k < u_pairs_.size(); ++k)
    u_cost_prefix_[k + 1] =
        u_cost_prefix_[k] +
        std::uint64_t{tree_.node(u_pairs_[k].first).num_points()} *
            tree_.node(u_pairs_[k].second).num_points();
  // eroof: hot-end
}

std::size_t FmmEvaluator::u_cut(std::size_t begin, std::size_t end,
                                std::uint64_t t,
                                std::uint64_t n_threads) const {
  // First pair of thread t's share of class [begin, end): the first pair
  // whose cost prefix reaches t / n_threads of the class's total. Integer
  // costs make thread t's end and thread t + 1's begin the same index.
  if (t >= n_threads) return end;
  const std::uint64_t base = u_cost_prefix_[begin];
  const std::uint64_t target =
      base + (u_cost_prefix_[end] - base) * t / n_threads;
  const auto first = u_cost_prefix_.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = u_cost_prefix_.begin() + static_cast<std::ptrdiff_t>(end);
  return static_cast<std::size_t>(std::lower_bound(first, last, target) -
                                  u_cost_prefix_.begin());
}

void FmmEvaluator::build_v_schedule() {
  const std::size_t n_nodes = tree_.nodes().size();
  // Only nodes with a non-empty V list are forward-transformed, which
  // covers every source read exactly when V lists are symmetric. Check that
  // against sorted copies of the lists (V lists are built in colleague
  // order, not sorted).
  std::vector<std::size_t> sorted_begin(n_nodes + 1, 0);
  std::vector<int> sorted;
  for (std::size_t b = 0; b < n_nodes; ++b) {
    const auto& vb = lists_.v[b];
    sorted.insert(sorted.end(), vb.begin(), vb.end());
    std::sort(sorted.end() - static_cast<std::ptrdiff_t>(vb.size()),
              sorted.end());
    sorted_begin[b + 1] = sorted.size();
  }
  for (std::size_t b = 0; b < n_nodes; ++b)
    for (const int s : lists_.v[b]) {
      const auto* first =
          sorted.data() + sorted_begin[static_cast<std::size_t>(s)];
      const auto* last =
          sorted.data() + sorted_begin[static_cast<std::size_t>(s) + 1];
      EROOF_REQUIRE_MSG(
          std::binary_search(first, last, static_cast<int>(b)),
          "V lists are not symmetric");
    }

  // Per level, the V-active nodes in level order; the spectra arena is
  // sized for the widest such list.
  const auto& by_level = tree_.nodes_by_level();
  const auto depth = static_cast<std::size_t>(tree_.max_depth());
  v_level_begin_.assign(depth + 2, 0);
  pos_in_level_.assign(n_nodes, 0);
  std::size_t widest = 0;
  for (std::size_t l = 0; l <= depth; ++l) {
    const std::size_t begin = v_nodes_.size();
    if (l >= static_cast<std::size_t>(kMinLevel))
      for (const int b : by_level[l]) {
        if (lists_.v[static_cast<std::size_t>(b)].empty()) continue;
        pos_in_level_[static_cast<std::size_t>(b)] = v_nodes_.size() - begin;
        v_nodes_.push_back(b);
      }
    v_level_begin_[l + 1] = v_nodes_.size();
    widest = std::max(widest, v_nodes_.size() - begin);
  }
  if (ops().config().use_fft_m2l) {
    spec_re_.resize(widest * ops().spectrum_size());
    spec_im_.resize(widest * ops().spectrum_size());
  }
}

FmmStats FmmEvaluator::compute_structural_stats() const {
  // One serial pass replicating the legacy per-phase tally loops verbatim --
  // same phase order (UP,V,X,DOWN,U,W), same level order, same node order --
  // so the summation order (and therefore every double) is bitwise identical
  // to what the bulk-synchronous path historically produced.
  FmmStats s;
  const std::size_t ns = ops().n_surf();
  const std::size_t g = ops().grid_size();
  const auto& by_level = tree_.nodes_by_level();
  const auto& leaves = tree_.leaves();

  // UP: deepest level first, as the upward sweep runs.
  for (int l = tree_.max_depth(); l >= kMinLevel; --l) {
    for (const int b : by_level[static_cast<std::size_t>(l)]) {
      const Node& node = tree_.node(b);
      if (node.leaf)
        s.up.kernel_evals += static_cast<double>(ns) * node.num_points();
      else
        for (int c : node.children)
          if (c >= 0) s.up.solve_matvecs += 1;
      s.up.solve_matvecs += 1;  // the UC2E solve
    }
  }

  // V: top level first, as the translation sweep runs.
  for (int l = kMinLevel; l <= tree_.max_depth(); ++l) {
    const auto& level_nodes = by_level[static_cast<std::size_t>(l)];
    if (level_nodes.empty()) continue;
    if (!ops().config().use_fft_m2l) {
      for (const int b : level_nodes) {
        const auto& vlist = lists_.v[static_cast<std::size_t>(b)];
        s.v.kernel_evals +=
            static_cast<double>(vlist.size()) * static_cast<double>(ns) * ns;
        s.v.pair_count += static_cast<double>(vlist.size());
      }
      continue;
    }
    s.v.ffts += static_cast<double>(level_nodes.size());
    for (const int b : level_nodes) {
      const auto& vlist = lists_.v[static_cast<std::size_t>(b)];
      if (vlist.empty()) continue;
      s.v.pair_count += static_cast<double>(vlist.size());
      s.v.hadamard_cmuls +=
          static_cast<double>(vlist.size()) * static_cast<double>(g);
      s.v.ffts += 1;  // the inverse transform
    }
  }

  // X.
  for (std::size_t b = 0; b < tree_.nodes().size(); ++b) {
    for (const int a : lists_.x[b]) {
      s.x.kernel_evals += static_cast<double>(ns) * tree_.node(a).num_points();
      s.x.pair_count += 1;
    }
  }

  // DOWN: DC2E/L2L sweep, then the L2P leaf outputs.
  for (int l = kMinLevel; l <= tree_.max_depth(); ++l) {
    for (const int b : by_level[static_cast<std::size_t>(l)]) {
      s.down.solve_matvecs += 1;
      for (int c : tree_.node(b).children)
        if (c >= 0) s.down.solve_matvecs += 1;
    }
  }
  for (const int b : leaves) {
    const Node& node = tree_.node(b);
    if (node.level() >= kMinLevel)
      s.down.kernel_evals += node.num_points() * static_cast<double>(ns);
  }

  // U.
  for (const int b : leaves) {
    const double npts = tree_.node(b).num_points();
    for (const int a : lists_.u[static_cast<std::size_t>(b)]) {
      s.u.kernel_evals +=
          npts * static_cast<double>(tree_.node(a).num_points());
      s.u.pair_count += 1;
    }
  }

  // W.
  for (const int b : leaves) {
    const double npts = tree_.node(b).num_points();
    for ([[maybe_unused]] const int a :
         lists_.w[static_cast<std::size_t>(b)]) {
      s.w.kernel_evals += npts * static_cast<double>(ns);
      s.w.pair_count += 1;
    }
  }
  return s;
}

// eroof: cold (first-call scratch sizing: returns immediately once the
// per-thread workspaces match the thread count)
void FmmEvaluator::ensure_workspaces() {
  const auto want = static_cast<std::size_t>(max_threads());
  if (workspaces_.size() >= want && !workspaces_.empty()) return;
  const std::size_t ns = ops().n_surf();
  const bool fft = ops().config().use_fft_m2l;
  const std::size_t g = fft ? ops().grid_size() : 0;
  const std::size_t sz = fft ? ops().spectrum_size() : 0;
  workspaces_.resize(std::max<std::size_t>(want, 1));
  for (auto& ws : workspaces_) {
    ws.check.resize(ns);
    ws.vals.resize(2 * ns);
    ws.tx.resize(ns);
    ws.ty.resize(ns);
    ws.tz.resize(ns);
    ws.sx.resize(ns);
    ws.sy.resize(ns);
    ws.sz.resize(ns);
    ws.grid.resize(g);
    ws.acc_re.resize(2 * sz);
    ws.acc_im.resize(2 * sz);
  }
}

FmmEvaluator::Workspace& FmmEvaluator::workspace() {
  return workspaces_[static_cast<std::size_t>(thread_index())];
}

std::vector<double> FmmEvaluator::evaluate(std::span<const double> densities) {
  std::vector<double> out(densities.size());
  evaluate_into(densities, out);
  return out;
}

void FmmEvaluator::evaluate_into(std::span<const double> densities,
                                 std::span<double> out) {
  EROOF_REQUIRE(densities.size() == tree_.points().size());
  EROOF_REQUIRE(out.size() == densities.size());

  // Setup: permute densities into tree-order staging, zero the arenas, and
  // make sure per-thread scratch exists. The staging buffers and scratch are
  // sized on the first call; past this point -- the six phases -- nothing
  // touches the heap.
  const auto orig = tree_.original_index();
  if (eval_dens_.size() != densities.size()) {
    eval_dens_.resize(densities.size());  // eroof-lint: allow(hot-alloc)
    eval_phi_.resize(densities.size());   // eroof-lint: allow(hot-alloc)
  }
  ensure_workspaces();

  // eroof: hot-begin (steady-state evaluate: permute in, zero arenas, run
  // the six phases, un-permute out)
  for (std::size_t i = 0; i < eval_dens_.size(); ++i)
    eval_dens_[i] = densities[orig[i]];

  std::fill(up_equiv_.begin(), up_equiv_.end(), 0.0);
  std::fill(down_check_.begin(), down_check_.end(), 0.0);
  std::fill(down_equiv_.begin(), down_equiv_.end(), 0.0);
  std::fill(eval_phi_.begin(), eval_phi_.end(), 0.0);

  trace::ScopedSpan eval_span("evaluate", "fmm");
  if (eval_span.active()) {
    eval_span.arg("n_points", static_cast<double>(eval_dens_.size()));
    eval_span.arg("n_nodes", static_cast<double>(tree_.nodes().size()));
  }

  evaluate_phases(eval_dens_, eval_phi_);

  // Un-permute the potentials to the caller's order.
  for (std::size_t i = 0; i < eval_phi_.size(); ++i)
    out[orig[i]] = eval_phi_[i];
  // eroof: hot-end
}

bool FmmEvaluator::try_refit(std::span<const Vec3> new_points) {
  if (!tree_.try_refit(new_points)) return false;
  // Structure is unchanged, so every structural piece -- interaction lists,
  // the U pair schedule, V node lists, slots, arenas, X targets, spectra --
  // stays valid. Only the coordinates moved, and with the occupancy the U
  // pair costs and the tallies shifted.
  const auto pts = tree_.points();
  // eroof: hot-begin (refit: refresh the SoA coordinate mirror in place)
  for (std::size_t i = 0; i < pts.size(); ++i) {
    px_[i] = pts[i].x;
    py_[i] = pts[i].y;
    pz_[i] = pts[i].z;
  }
  // eroof: hot-end
  fill_u_costs();
  stats_ = compute_structural_stats();
  return true;
}

std::vector<double> FmmEvaluator::evaluate_at(
    const Kernel& kernel, std::span<const Vec3> targets,
    std::span<const Vec3> sources, std::span<const double> densities,
    Octree::Params tree_params, FmmConfig cfg) {
  EROOF_REQUIRE(!targets.empty());
  EROOF_REQUIRE(sources.size() == densities.size());

  std::vector<Vec3> all;
  all.reserve(sources.size() + targets.size());
  all.insert(all.end(), sources.begin(), sources.end());
  all.insert(all.end(), targets.begin(), targets.end());
  std::vector<double> dens(all.size(), 0.0);
  std::copy(densities.begin(), densities.end(), dens.begin());

  FmmEvaluator ev(kernel, all, tree_params, cfg);
  const auto phi = ev.evaluate(dens);
  return std::vector<double>(phi.begin() + static_cast<long>(sources.size()),
                             phi.end());
}

// ---------------------------------------------------------------------------
// Per-node phase bodies. Within one sweep every arena cell and output element
// has exactly one writing body, so the sweeps below can run the nodes of one
// level (or all leaves) in parallel without changing any result bit.
// ---------------------------------------------------------------------------

void FmmEvaluator::node_up(int b, const double* dens) {
  // eroof: hot-begin (UP body: P2M or M2M, then the UC2E solve, for one node)
  const std::size_t ns = ops().n_surf();
  const Node& node = tree_.node(b);
  const LevelOperators& lops = ops().level(node.level());
  Workspace& ws = workspace();
  std::fill(ws.check.begin(), ws.check.end(), 0.0);

  if (node.leaf) {
    // P2M: source points -> upward check potentials.
    lops.surf_outer.materialize(node.box.center, ws.tx.data(), ws.ty.data(),
                               ws.tz.data());
    kern().eval_batch({ws.tx.data(), ws.ty.data(), ws.tz.data(), ns},
                       point_block(node.point_begin, node.point_end),
                       dens + node.point_begin, ws.check.data());
  } else {
    // M2M: children's equivalent densities -> this box's check surface.
    for (int c : node.children) {
      if (c < 0) continue;
      la::gemv_add(lops.m2m[tree_.node(c).key.octant_in_parent()], up_equiv(c),
                   ws.check);
    }
  }

  // UC2E solve: check potentials -> equivalent density.
  la::gemv_add(lops.uc2e, ws.check, up_equiv(b));
  // eroof: hot-end
}

void FmmEvaluator::v_pair_forward(int a, int b) {
  // eroof: hot-begin (V body: one forward FFT of node a's equivalent grid as
  // the real part and node b's as the imaginary part, split into their two
  // Hermitian half spectra; b < 0 transforms a alone)
  const std::size_t sz = ops().spectrum_size();
  const auto spectrum = [&](std::vector<double>& plane, int n) {
    return n < 0 ? std::span<double>{}
                 : std::span<double>{
                       plane.data() +
                           pos_in_level_[static_cast<std::size_t>(n)] * sz,
                       sz};
  };
  Workspace& ws = workspace();
  ops().embed(up_equiv(a), ws.grid,
              b < 0 ? std::span<const double>{} : up_equiv(b));
  ops().plan().forward(ws.grid);
  ops().store_half(ws.grid, spectrum(spec_re_, a), spectrum(spec_im_, a),
                   spectrum(spec_re_, b), spectrum(spec_im_, b));
  // eroof: hot-end
}

void FmmEvaluator::v_accumulate(int b, double* acc_re, double* acc_im) {
  // eroof: hot-begin (V body: Hadamard accumulation of one target's V list
  // over the half spectra)
  const std::size_t sz = ops().spectrum_size();
  const Node& node = tree_.node(b);
  const LevelOperators& lops = ops().level(node.level());
  const auto bc = node.key.coords();
  // The kernel and source half spectra of one V-list entry.
  struct Operands {
    const double *t_re, *t_im, *q_re, *q_im;
  };
  const auto operands = [&](int s) {
    const auto sc = tree_.node(s).key.coords();
    const auto rel = Operators::rel_index(
        static_cast<int>(bc[0]) - static_cast<int>(sc[0]),
        static_cast<int>(bc[1]) - static_cast<int>(sc[1]),
        static_cast<int>(bc[2]) - static_cast<int>(sc[2]));
    EROOF_REQUIRE_MSG(rel.has_value(), "V-list pair in the near field");
    const std::size_t pos = pos_in_level_[static_cast<std::size_t>(s)] * sz;
    return Operands{lops.m2l->re.data() + *rel * sz,
                    lops.m2l->im.data() + *rel * sz, spec_re_.data() + pos,
                    spec_im_.data() + pos};
  };
  std::fill(acc_re, acc_re + sz, 0.0);
  std::fill(acc_im, acc_im + sz, 0.0);
  // Two V-list entries per pass over the accumulator, each added in list
  // order with the one-entry expression, so every sum is bitwise the same;
  // the pass saves one load and one store of each accumulator per entry.
  // Operands are read into locals before the stores, which the compiler
  // cannot move them past (it cannot rule out aliasing).
  const auto& vlist = lists_.v[static_cast<std::size_t>(b)];
  std::size_t i = 0;
  for (; i + 1 < vlist.size(); i += 2) {
    const Operands x = operands(vlist[i]);
    const Operands y = operands(vlist[i + 1]);
#pragma omp simd
    for (std::size_t k = 0; k < sz; ++k) {
      const double xtr = x.t_re[k], xti = x.t_im[k];
      const double xqr = x.q_re[k], xqi = x.q_im[k];
      const double ytr = y.t_re[k], yti = y.t_im[k];
      const double yqr = y.q_re[k], yqi = y.q_im[k];
      const double re = acc_re[k] + (xtr * xqr - xti * xqi);
      const double im = acc_im[k] + (xtr * xqi + xti * xqr);
      acc_re[k] = re + (ytr * yqr - yti * yqi);
      acc_im[k] = im + (ytr * yqi + yti * yqr);
    }
  }
  if (i < vlist.size()) {
    const Operands x = operands(vlist[i]);
#pragma omp simd
    for (std::size_t k = 0; k < sz; ++k) {
      const double xtr = x.t_re[k], xti = x.t_im[k];
      const double xqr = x.q_re[k], xqi = x.q_im[k];
      acc_re[k] += xtr * xqr - xti * xqi;
      acc_im[k] += xtr * xqi + xti * xqr;
    }
  }
  // eroof: hot-end
}

void FmmEvaluator::v_pair_hadamard(int a, int b) {
  // eroof: hot-begin (V body: accumulate two targets' half spectra, one
  // inverse FFT of A + iB, and scatter the real part onto a's downward
  // check surface and the imaginary part onto b's; b < 0 runs a alone)
  const std::size_t ns = ops().n_surf();
  const std::size_t sz = ops().spectrum_size();
  const double scale = ops().level(tree_.node(a).level()).m2l_scale;
  Workspace& ws = workspace();
  const bool pair = b >= 0;
  v_accumulate(a, ws.acc_re.data(), ws.acc_im.data());
  if (pair) v_accumulate(b, ws.acc_re.data() + sz, ws.acc_im.data() + sz);
  const std::span<const double> acc_re(ws.acc_re);
  const std::span<const double> acc_im(ws.acc_im);
  ops().expand_half(acc_re.first(sz), acc_im.first(sz), ws.grid,
                    pair ? acc_re.last(sz) : std::span<const double>{},
                    pair ? acc_im.last(sz) : std::span<const double>{});
  ops().plan().inverse(ws.grid);
  const std::span<double> vals(ws.vals);
  ops().extract(ws.grid, vals.first(ns),
                pair ? vals.last(ns) : std::span<double>{});
  // m2l_scale is a power of two for homogeneous kernels, so applying it
  // here (instead of to the shared bank) is exact.
  for (const int n : {a, b}) {
    if (n < 0) continue;
    double* check = down_check(n).data();
    const double* v = n == a ? vals.data() : vals.data() + ns;
#pragma omp simd
    for (std::size_t i = 0; i < ns; ++i) check[i] += scale * v[i];
  }
  // eroof: hot-end
}

void FmmEvaluator::node_v_dense(int b) {
  // eroof: hot-begin (V body, dense fallback: batched M2L kernel application)
  const auto& vlist = lists_.v[static_cast<std::size_t>(b)];
  if (vlist.empty()) return;
  const std::size_t ns = ops().n_surf();
  const Node& node = tree_.node(b);
  const LevelOperators& lops = ops().level(node.level());
  Workspace& ws = workspace();
  lops.surf_inner.materialize(node.box.center, ws.tx.data(), ws.ty.data(),
                              ws.tz.data());
  double* check = down_check(b).data();
  for (const int s : vlist) {
    lops.surf_inner.materialize(tree_.node(s).box.center, ws.sx.data(),
                                ws.sy.data(), ws.sz.data());
    kern().eval_batch({ws.tx.data(), ws.ty.data(), ws.tz.data(), ns},
                       {ws.sx.data(), ws.sy.data(), ws.sz.data(), ns},
                       up_equiv(s).data(), check);
  }
  // eroof: hot-end
}

void FmmEvaluator::node_x(int b, const double* dens) {
  // eroof: hot-begin (X body: batched P2L onto one downward check surface)
  const std::size_t ns = ops().n_surf();
  const Node& node = tree_.node(b);
  Workspace& ws = workspace();
  ops().level(node.level())
      .surf_inner.materialize(node.box.center, ws.tx.data(), ws.ty.data(),
                              ws.tz.data());
  double* check = down_check(b).data();
  for (const int a : lists_.x[static_cast<std::size_t>(b)]) {
    const Node& src = tree_.node(a);
    kern().eval_batch({ws.tx.data(), ws.ty.data(), ws.tz.data(), ns},
                       point_block(src.point_begin, src.point_end),
                       dens + src.point_begin, check);
  }
  // eroof: hot-end
}

void FmmEvaluator::node_down(int b) {
  // eroof: hot-begin (DOWN body: DC2E solve + L2L pushes for one node)
  const Node& node = tree_.node(b);
  const LevelOperators& lops = ops().level(node.level());
  // DC2E solve: accumulated check potentials -> equivalent density.
  const auto equiv = down_equiv(b);
  la::gemv_add(lops.dc2e, down_check(b), equiv);

  // L2L: push to children's check surfaces (each child's check surface has
  // exactly one L2L writer -- this node -- so the level sweep is race-free).
  for (int c : node.children) {
    if (c < 0) continue;
    la::gemv_add(lops.l2l[tree_.node(c).key.octant_in_parent()], equiv,
                 down_check(c));
  }
  // eroof: hot-end
}

void FmmEvaluator::leaf_l2p(int b, double* phi) {
  // eroof: hot-begin (DOWN body: batched L2P outputs of one leaf)
  const Node& node = tree_.node(b);
  if (node.level() < kMinLevel) return;  // no expansion this shallow
  const std::size_t ns = ops().n_surf();
  Workspace& ws = workspace();
  ops().level(node.level())
      .surf_outer.materialize(node.box.center, ws.sx.data(), ws.sy.data(),
                              ws.sz.data());
  kern().eval_batch(point_block(node.point_begin, node.point_end),
                     {ws.sx.data(), ws.sy.data(), ws.sz.data(), ns},
                     down_equiv(b).data(), phi + node.point_begin);
  // eroof: hot-end
}

void FmmEvaluator::u_block(int b, int a, const double* dens, double* phi) {
  // eroof: hot-begin (U body: one near-field block, evaluated once and
  // scattered into both leaves; a == b is the leaf's self block)
  const Node& nb = tree_.node(b);
  const Node& na = tree_.node(a);
  kern().eval_mutual(point_block(nb.point_begin, nb.point_end),
                      dens + nb.point_begin, phi + nb.point_begin,
                      point_block(na.point_begin, na.point_end),
                      dens + na.point_begin, phi + na.point_begin);
  // eroof: hot-end
}

void FmmEvaluator::leaf_w(int b, double* phi) {
  // eroof: hot-begin (W body: batched M2P of one leaf)
  const Node& node = tree_.node(b);
  const auto& wlist = lists_.w[static_cast<std::size_t>(b)];
  if (wlist.empty()) return;
  const std::size_t ns = ops().n_surf();
  Workspace& ws = workspace();
  const PointBlock targets = point_block(node.point_begin, node.point_end);
  for (const int a : wlist) {
    const Node& src = tree_.node(a);
    ops().level(src.level())
        .surf_inner.materialize(src.box.center, ws.sx.data(), ws.sy.data(),
                                ws.sz.data());
    kern().eval_batch(targets, {ws.sx.data(), ws.sy.data(), ws.sz.data(), ns},
                       up_equiv(a).data(), phi + node.point_begin);
  }
  // eroof: hot-end
}

// ---------------------------------------------------------------------------
// The six phase sweeps, with a barrier between phases.
// ---------------------------------------------------------------------------

void FmmEvaluator::evaluate_phases(std::span<const double> dens,
                                   std::span<double> phi) {
  {
    trace::ScopedSpan span("UP", "fmm.phase");
    upward_pass(dens);
    record_phase(span, "UP", stats_.up);
  }
  {
    trace::ScopedSpan span("V", "fmm.phase");
    v_phase();
    record_phase(span, "V", stats_.v);
  }
  {
    trace::ScopedSpan span("X", "fmm.phase");
    x_phase(dens);
    record_phase(span, "X", stats_.x);
  }
  {
    // DOWN covers the DC2E/L2L sweep and the L2P leaf outputs: both tally
    // into stats_.down, matching the paper's phase taxonomy.
    trace::ScopedSpan span("DOWN", "fmm.phase");
    downward_pass();
    l2p_pass(phi);
    record_phase(span, "DOWN", stats_.down);
  }
  {
    trace::ScopedSpan span("U", "fmm.phase");
    u_pass(dens, phi);
    record_phase(span, "U", stats_.u);
  }
  {
    trace::ScopedSpan span("W", "fmm.phase");
    w_pass(phi);
    record_phase(span, "W", stats_.w);
  }
}

void FmmEvaluator::upward_pass(std::span<const double> dens) {
  const auto& by_level = tree_.nodes_by_level();
  for (int l = tree_.max_depth(); l >= kMinLevel; --l) {
    const auto& level_nodes = by_level[static_cast<std::size_t>(l)];
    // eroof: hot-begin (UP: P2M/M2M/UC2E per level)
#pragma omp parallel for schedule(dynamic)
    for (std::size_t ni = 0; ni < level_nodes.size(); ++ni)
      node_up(level_nodes[ni], dens.data());
    // eroof: hot-end
  }
}

void FmmEvaluator::v_phase() {
  const auto& by_level = tree_.nodes_by_level();

  for (int l = kMinLevel; l <= tree_.max_depth(); ++l) {
    const auto& level_nodes = by_level[static_cast<std::size_t>(l)];
    if (level_nodes.empty()) continue;

    if (!ops().config().use_fft_m2l) {
      // eroof: hot-begin (V dense fallback: batched M2L kernel application)
#pragma omp parallel for schedule(dynamic)
      for (std::size_t ni = 0; ni < level_nodes.size(); ++ni)
        node_v_dense(level_nodes[ni]);
      // eroof: hot-end
      continue;
    }

    // Forward FFTs of the level's V-active nodes into the per-level
    // spectrum arena (reused across levels; safe because the
    // bulk-synchronous sweep finishes a level before starting the next),
    // two nodes per transform: positions 2q and 2q + 1 form pair q.
    const std::size_t begin = v_level_begin_[static_cast<std::size_t>(l)];
    const std::size_t count =
        v_level_begin_[static_cast<std::size_t>(l) + 1] - begin;
    const int* nodes = v_nodes_.data() + begin;
    const std::size_t n_pairs = (count + 1) / 2;
    const auto second = [&](std::size_t q) {
      return 2 * q + 1 < count ? nodes[2 * q + 1] : -1;
    };
    // eroof: hot-begin (V: paired forward FFTs into the level spectrum arena)
#pragma omp parallel for schedule(dynamic)
    for (std::size_t q = 0; q < n_pairs; ++q)
      v_pair_forward(nodes[2 * q], second(q));
    // eroof: hot-end

    // Per target pair: accumulate Hadamard products in Fourier space, one
    // inverse FFT, then scatter onto the two downward check surfaces.
    // eroof: hot-begin (V: Hadamard accumulate + inverse FFT + scatter)
#pragma omp parallel for schedule(dynamic)
    for (std::size_t q = 0; q < n_pairs; ++q)
      v_pair_hadamard(nodes[2 * q], second(q));
    // eroof: hot-end
  }
}

void FmmEvaluator::x_phase(std::span<const double> dens) {
  // eroof: hot-begin (X: batched P2L onto downward check surfaces)
#pragma omp parallel for schedule(dynamic)
  for (std::size_t ti = 0; ti < x_targets_.size(); ++ti)
    node_x(x_targets_[ti], dens.data());
  // eroof: hot-end
}

void FmmEvaluator::downward_pass() {
  const auto& by_level = tree_.nodes_by_level();
  for (int l = kMinLevel; l <= tree_.max_depth(); ++l) {
    const auto& level_nodes = by_level[static_cast<std::size_t>(l)];
    // eroof: hot-begin (DOWN: DC2E/L2L per level)
#pragma omp parallel for schedule(dynamic)
    for (std::size_t ni = 0; ni < level_nodes.size(); ++ni)
      node_down(level_nodes[ni]);
    // eroof: hot-end
  }
}

void FmmEvaluator::l2p_pass(std::span<double> phi) {
  const auto& leaves = tree_.leaves();
  // eroof: hot-begin (DOWN: batched L2P leaf outputs)
#pragma omp parallel for schedule(dynamic)
  for (std::size_t li = 0; li < leaves.size(); ++li)
    leaf_l2p(leaves[li], phi.data());
  // eroof: hot-end
}

void FmmEvaluator::u_pass(std::span<const double> dens,
                          std::span<double> phi) {
  // Self blocks first, then one color class at a time. A class is a
  // matching -- no leaf appears in two of its pairs -- so its blocks write
  // disjoint potentials, and each leaf sees its blocks in an order fixed by
  // the schedule alone: bitwise identical at any thread count. Each thread
  // takes one contiguous range of a class, cut at equal shares of the
  // class's pair cost n_b * n_a: contiguous runs of (b, a) order keep
  // neighbouring leaves on one thread, and the cost cut keeps the threads
  // level as occupancy drifts away from uniform.
  const auto& leaves = tree_.leaves();
  const std::size_t n_colors = u_color_begin_.size() - 1;
  // eroof: hot-begin (U: mutual near-field P2P over the colored schedule)
#pragma omp parallel
  {
#pragma omp for schedule(dynamic)
    for (std::size_t li = 0; li < leaves.size(); ++li)
      u_block(leaves[li], leaves[li], dens.data(), phi.data());
    const auto t = static_cast<std::uint64_t>(thread_index());
    const auto n_threads = static_cast<std::uint64_t>(team_size());
    for (std::size_t c = 0; c < n_colors; ++c) {
      const std::size_t begin = u_color_begin_[c];
      const std::size_t end = u_color_begin_[c + 1];
      const std::size_t hi = u_cut(begin, end, t + 1, n_threads);
      for (std::size_t k = u_cut(begin, end, t, n_threads); k < hi; ++k)
        u_block(u_pairs_[k].first, u_pairs_[k].second, dens.data(),
                phi.data());
#pragma omp barrier
    }
  }
  // eroof: hot-end
}

void FmmEvaluator::w_pass(std::span<double> phi) {
  const auto& leaves = tree_.leaves();
  // eroof: hot-begin (W: batched M2P)
#pragma omp parallel for schedule(dynamic)
  for (std::size_t li = 0; li < leaves.size(); ++li)
    leaf_w(leaves[li], phi.data());
  // eroof: hot-end
}

}  // namespace eroof::fmm
