#include "fmm/gpu_profile.hpp"

#include <cmath>
#include <sstream>
#include <string>

#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::fmm {
namespace {

// The modeled CUDA implementation.

/// Integer (address/loop/predicate) instructions per SP flop in the pairwise
/// inner loops. Real GPU kernels spend most of their instruction stream here
/// (paper Fig. 4: ~60% integer).
constexpr double kIntPerFlop = 1.5;

/// Compute utilization per phase: fraction of peak issue rate achieved.
constexpr double kUtilUp = 0.15;
constexpr double kUtilU = 0.22;  ///< the paper's ~1/4-of-peak U-list kernel
constexpr double kUtilV = 0.30;
constexpr double kUtilW = 0.15;
constexpr double kUtilX = 0.15;
constexpr double kUtilDown = 0.15;

/// Achieved fraction of peak DRAM bandwidth in the streaming (V) phase and
/// elsewhere.
constexpr double kMemUtilV = 0.50;
constexpr double kMemUtilDefault = 0.45;

/// Shared-memory broadcast efficiency of the pairwise loops: warps read a
/// staged source value once per warp (hardware broadcast), not once per
/// thread, so SM transactions per interaction shrink by roughly this factor
/// relative to the naive per-thread count.
constexpr double kSmBroadcastFactor = 8.0;

/// Thread blocks resident per SMX. The V phase's global reads interleave
/// across this many concurrently executing target boxes; Morton-adjacent
/// targets share most of their V-list sources, so the interleaved stream is
/// what gives the L2 its hit traffic (the paper's Fig. 6 shows L2 serving
/// 30-40% of data-access energy).
constexpr std::size_t kConcurrentBlocks = 16;

/// Global-memory front end: tracks the phase's byte totals while feeding
/// every access to the cache hierarchy.
class GMem {
 public:
  void read(std::uint64_t addr, std::uint64_t bytes) {
    access(addr, bytes, false);
  }
  void write(std::uint64_t addr, std::uint64_t bytes) {
    access(addr, bytes, true);
  }

  double read_bytes() const { return read_bytes_; }
  double write_bytes() const { return write_bytes_; }

  const hw::MemoryHierarchy& hierarchy() const { return hier_; }

  void reset() {
    hier_.reset();
    read_bytes_ = write_bytes_ = 0;
  }

 private:
  void access(std::uint64_t addr, std::uint64_t bytes, bool write) {
    (write ? write_bytes_ : read_bytes_) += static_cast<double>(bytes);
    hier_.access(addr, bytes, write);
  }

  hw::MemoryHierarchy hier_;
  double read_bytes_ = 0;
  double write_bytes_ = 0;
};

/// Virtual address space of the modeled device allocation.
struct AddressMap {
  std::uint64_t points = 0;       // 16 B per point (x, y, z, density; SP)
  std::uint64_t potentials = 0;   // 4 B per point
  std::uint64_t up_equiv = 0;     // ns floats per node
  std::uint64_t down = 0;         // ns floats per node (check/equiv reuse)
  std::uint64_t spectra = 0;      // g complex-SP per node
  std::uint64_t tensors = 0;      // 343 slots of g complex-SP per level
  std::uint64_t matrices = 0;     // per level: solve + translation operators

  static AddressMap layout(std::size_t n_points, std::size_t n_nodes,
                           std::size_t ns, std::size_t g,
                           std::size_t n_levels) {
    AddressMap a;
    std::uint64_t cursor = 0;
    const auto alloc = [&cursor](std::uint64_t bytes) {
      const std::uint64_t base = cursor;
      cursor += (bytes + 255) & ~std::uint64_t{255};
      return base;
    };
    a.points = alloc(n_points * 16);
    a.potentials = alloc(n_points * 4);
    a.up_equiv = alloc(n_nodes * ns * 4);
    a.down = alloc(n_nodes * ns * 4);
    a.spectra = alloc(n_nodes * g * 8);
    a.tensors = alloc(n_levels * 343 * g * 8);
    a.matrices = alloc(n_levels * 32 * ns * ns * 8);
    return a;
  }
};

class Profiler {
 public:
  explicit Profiler(const FmmEvaluator& ev)
      : tree_(ev.tree()),
        lists_(ev.lists()),
        ns_(ev.operators().n_surf()),
        g_(ev.operators().grid_size()),
        flops_per_eval_(ev.kernel().flops_per_eval()),
        addr_(AddressMap::layout(tree_.points().size(), tree_.nodes().size(),
                                 ns_, g_,
                                 static_cast<std::size_t>(tree_.max_depth()) +
                                     1)) {}

  // eroof: cold (profiling pass: runs once per plan to model phase
  // workloads; its sample records allocate by design)
  FmmGpuProfile run() {
    trace::ScopedSpan span("profile_gpu_execution", "fmm.profile");
    FmmGpuProfile out;
    out.phases.push_back(traced("UP", &Profiler::phase_up));
    out.phases.push_back(traced("U", &Profiler::phase_u));
    out.phases.push_back(traced("V", &Profiler::phase_v));
    out.phases.push_back(traced("W", &Profiler::phase_w));
    out.phases.push_back(traced("X", &Profiler::phase_x));
    out.phases.push_back(traced("DOWN", &Profiler::phase_down));
    return out;
  }

 private:
  static constexpr int kMinLevel = 2;

  /// Spans one modeled phase and mirrors its derived op counts into the
  /// counter registry ("profile.<phase>.<class>") -- the numbers the
  /// paper's Fig. 4 breakdown is computed from, guarded bit-for-bit by the
  /// deterministic-pipeline regression test.
  GpuPhaseProfile traced(const char* name,
                         GpuPhaseProfile (Profiler::*phase_fn)()) {
    trace::ScopedSpan span(name, "fmm.profile");
    GpuPhaseProfile out = (this->*phase_fn)();
    if (span.active()) {
      const std::string prefix = std::string("profile.") + name + ".";
      for (std::size_t i = 0; i < hw::kNumOpClasses; ++i) {
        const std::string cls(hw::kOpClassNames[i]);
        span.arg(cls, out.workload.ops.n[i]);
        trace::counter_add(prefix + cls, out.workload.ops.n[i]);
      }
    }
    return out;
  }

  struct Acc {
    double sp = 0;
    double dp = 0;
    double ints = 0;
    double sm_read_words = 0;
    double sm_write_words = 0;
  };

  std::uint64_t point_addr(std::uint32_t i) const {
    return addr_.points + std::uint64_t{16} * i;
  }
  std::uint64_t equiv_addr(int node) const {
    return addr_.up_equiv + std::uint64_t{4} * ns_ * static_cast<unsigned>(node);
  }
  std::uint64_t down_addr(int node) const {
    return addr_.down + std::uint64_t{4} * ns_ * static_cast<unsigned>(node);
  }
  std::uint64_t spectrum_addr(int node) const {
    return addr_.spectra + std::uint64_t{8} * g_ * static_cast<unsigned>(node);
  }
  std::uint64_t tensor_addr(int level, std::size_t rel) const {
    return addr_.tensors +
           std::uint64_t{8} * g_ *
               (343u * static_cast<unsigned>(level) + rel);
  }
  std::uint64_t matrix_addr(int level, int which, bool dp) const {
    // which: 0 uc2e, 1 dc2e, 2..9 m2m, 10..17 l2l
    return addr_.matrices +
           (dp ? 8u : 4u) * ns_ * ns_ *
               (32u * static_cast<unsigned>(level) +
                static_cast<unsigned>(which));
  }

  /// Pairwise interaction block: nt targets each interacting with nsrc
  /// staged-in-shared sources.
  void pair_block(Acc& acc, double nt, double nsrc) {
    const double evals = nt * nsrc;
    acc.sp += evals * (flops_per_eval_ + 2.0);
    acc.ints += evals * (flops_per_eval_ + 2.0) * kIntPerFlop;
    // x, y, z, density per source, shrunk by warp broadcast.
    acc.sm_read_words += evals * 4.0 / kSmBroadcastFactor;
  }

  /// Stage `n` points (16 B each) from global memory into shared memory.
  void stage_points(Acc& acc, std::uint32_t begin, std::uint32_t count) {
    gmem_.read(point_addr(begin), std::uint64_t{16} * count);
    acc.sm_write_words += 4.0 * count;
    acc.ints += 8.0 * count;  // staging loop
  }

  /// Dense matvec of an ns x ns operator whose matrix streams from global
  /// memory (cached across boxes of a level) with the operand in shared.
  void matvec(Acc& acc, std::uint64_t matrix, bool dp) {
    const double n2 = static_cast<double>(ns_) * static_cast<double>(ns_);
    gmem_.read(matrix, static_cast<std::uint64_t>((dp ? 8 : 4) * n2));
    (dp ? acc.dp : acc.sp) += 2.0 * n2;
    acc.ints += 2.0 * n2 * kIntPerFlop * 0.5;  // regular, unrolled
    acc.sm_read_words += n2;
  }

  GpuPhaseProfile phase_up() {
    gmem_.reset();
    Acc acc;
    for (int l = tree_.max_depth(); l >= kMinLevel; --l) {
      for (const int b : tree_.nodes_by_level()[static_cast<std::size_t>(l)]) {
        const Node& node = tree_.node(b);
        if (node.leaf) {
          stage_points(acc, node.point_begin, node.num_points());
          pair_block(acc, static_cast<double>(ns_), node.num_points());
        } else {
          for (int c : node.children) {
            if (c < 0) continue;
            gmem_.read(equiv_addr(c), 4 * ns_);
            matvec(acc,
                   matrix_addr(l, 2 + static_cast<int>(
                                       tree_.node(c).key.octant_in_parent()),
                               false),
                   false);
          }
        }
        matvec(acc, matrix_addr(l, 0, true), true);  // UC2E solve (DP)
        gmem_.write(equiv_addr(b), 4 * ns_);
      }
    }
    return finish("UP", acc, kUtilUp, kMemUtilDefault);
  }

  GpuPhaseProfile phase_u() {
    gmem_.reset();
    Acc acc;
    for (const int b : tree_.leaves()) {
      const Node& tgt = tree_.node(b);
      const double nt = tgt.num_points();
      // Target coordinates stream once per block; results written once.
      gmem_.read(point_addr(tgt.point_begin), std::uint64_t{16} * tgt.num_points());
      for (const int a : lists_.u[static_cast<std::size_t>(b)]) {
        const Node& src = tree_.node(a);
        stage_points(acc, src.point_begin, src.num_points());
        pair_block(acc, nt, src.num_points());
      }
      gmem_.write(addr_.potentials + std::uint64_t{4} * tgt.point_begin,
                  std::uint64_t{4} * tgt.num_points());
    }
    return finish("U", acc, kUtilU, kMemUtilDefault);
  }

  GpuPhaseProfile phase_v() {
    gmem_.reset();
    Acc acc;
    const double gd = static_cast<double>(g_);
    const double fft_flops = 5.0 * gd * std::log2(gd);

    for (int l = kMinLevel; l <= tree_.max_depth(); ++l) {
      const auto& level_nodes =
          tree_.nodes_by_level()[static_cast<std::size_t>(l)];
      // Forward FFTs.
      for (const int b : level_nodes) {
        gmem_.read(equiv_addr(b), 4 * ns_);
        acc.sp += fft_flops;
        acc.ints += fft_flops * kIntPerFlop * 0.5;
        acc.sm_read_words += 4.0 * gd;  // in-shared butterflies
        acc.sm_write_words += 4.0 * gd;
        gmem_.write(spectrum_addr(b), 8 * g_);
      }
      // Hadamard accumulation + inverse FFT per target. The device runs
      // `concurrent_blocks` target boxes at once; their global reads
      // interleave, which is what makes shared source spectra and
      // translation tensors hit in L2. We replay that schedule: targets in
      // resident groups, round-robin over their (direction-sorted) V lists.
      std::vector<int> v_targets;
      for (const int b : level_nodes)
        if (!lists_.v[static_cast<std::size_t>(b)].empty())
          v_targets.push_back(b);

      const auto pair_rel = [&](int b, int s) {
        const auto bc = tree_.node(b).key.coords();
        const auto sc = tree_.node(s).key.coords();
        return Operators::rel_index(
                   static_cast<int>(bc[0]) - static_cast<int>(sc[0]),
                   static_cast<int>(bc[1]) - static_cast<int>(sc[1]),
                   static_cast<int>(bc[2]) - static_cast<int>(sc[2]))
            .value();
      };

      for (std::size_t g0 = 0; g0 < v_targets.size();
           g0 += kConcurrentBlocks) {
        const std::size_t g1 =
            std::min(g0 + kConcurrentBlocks, v_targets.size());
        // Direction-sorted per-target work queues.
        std::vector<std::vector<std::pair<std::size_t, int>>> queues;
        std::size_t max_len = 0;
        for (std::size_t t = g0; t < g1; ++t) {
          const int b = v_targets[t];
          std::vector<std::pair<std::size_t, int>> queue;
          for (const int s : lists_.v[static_cast<std::size_t>(b)])
            queue.emplace_back(pair_rel(b, s), s);
          std::sort(queue.begin(), queue.end());
          max_len = std::max(max_len, queue.size());
          queues.push_back(std::move(queue));
        }
        for (std::size_t k = 0; k < max_len; ++k) {
          for (auto& queue : queues) {
            if (k >= queue.size()) continue;
            gmem_.read(spectrum_addr(queue[k].second), 8 * g_);
            gmem_.read(tensor_addr(l, queue[k].first), 8 * g_);
            acc.sp += 8.0 * gd;  // complex multiply-accumulate per element
            acc.ints += 8.0 * gd * kIntPerFlop * 0.5;
            acc.sm_read_words += 2.0 * gd;
            acc.sm_write_words += 2.0 * gd;
          }
        }
      }
      for (const int b : v_targets) {
        acc.sp += fft_flops;
        acc.ints += fft_flops * kIntPerFlop * 0.5;
        acc.sm_read_words += 4.0 * gd;
        acc.sm_write_words += 4.0 * gd;
        gmem_.write(down_addr(b), 4 * ns_);
      }
    }
    return finish("V", acc, kUtilV, kMemUtilV);
  }

  GpuPhaseProfile phase_w() {
    gmem_.reset();
    Acc acc;
    for (const int b : tree_.leaves()) {
      const auto& wlist = lists_.w[static_cast<std::size_t>(b)];
      if (wlist.empty()) continue;
      const Node& tgt = tree_.node(b);
      gmem_.read(point_addr(tgt.point_begin), std::uint64_t{16} * tgt.num_points());
      for (const int a : wlist) {
        gmem_.read(equiv_addr(a), 4 * ns_);
        acc.sm_write_words += static_cast<double>(ns_);
        // Surface geometry is generated in registers (3 flops per node).
        acc.sp += 3.0 * static_cast<double>(ns_);
        pair_block(acc, tgt.num_points(), static_cast<double>(ns_));
      }
      gmem_.write(addr_.potentials + std::uint64_t{4} * tgt.point_begin,
                  std::uint64_t{4} * tgt.num_points());
    }
    return finish("W", acc, kUtilW, kMemUtilDefault);
  }

  GpuPhaseProfile phase_x() {
    gmem_.reset();
    Acc acc;
    for (std::size_t b = 0; b < tree_.nodes().size(); ++b) {
      const auto& xlist = lists_.x[b];
      if (xlist.empty()) continue;
      for (const int a : xlist) {
        const Node& src = tree_.node(a);
        stage_points(acc, src.point_begin, src.num_points());
        acc.sp += 3.0 * static_cast<double>(ns_);
        pair_block(acc, static_cast<double>(ns_), src.num_points());
      }
      gmem_.write(down_addr(static_cast<int>(b)), 4 * ns_);
    }
    return finish("X", acc, kUtilX, kMemUtilDefault);
  }

  GpuPhaseProfile phase_down() {
    gmem_.reset();
    Acc acc;
    for (int l = kMinLevel; l <= tree_.max_depth(); ++l) {
      for (const int b : tree_.nodes_by_level()[static_cast<std::size_t>(l)]) {
        const Node& node = tree_.node(b);
        gmem_.read(down_addr(b), 4 * ns_);
        matvec(acc, matrix_addr(l, 1, true), true);  // DC2E solve (DP)
        for (int c : node.children) {
          if (c < 0) continue;
          matvec(acc,
                 matrix_addr(l, 10 + static_cast<int>(
                                       tree_.node(c).key.octant_in_parent()),
                             false),
                 false);
          gmem_.write(down_addr(c), 4 * ns_);
        }
        if (node.leaf) {
          gmem_.read(point_addr(node.point_begin), std::uint64_t{16} * node.num_points());
          pair_block(acc, node.num_points(), static_cast<double>(ns_));
          gmem_.write(addr_.potentials + std::uint64_t{4} * node.point_begin,
                      std::uint64_t{4} * node.num_points());
        }
      }
    }
    return finish("DOWN", acc, kUtilDown, kMemUtilDefault);
  }

  GpuPhaseProfile finish(const std::string& phase, const Acc& acc,
                         double util_c, double util_m) {
    GpuPhaseProfile out;
    out.name = phase;
    hw::CounterSet& c = out.counters;

    // Instruction metrics. The FMA/add/mul split reflects the kernels'
    // fused inner loops (dominantly FMA).
    c.add("flops_sp_fma", 0.70 * acc.sp);
    c.add("flops_sp_add", 0.15 * acc.sp);
    c.add("flops_sp_mul", 0.15 * acc.sp);
    c.add("flops_dp_fma", 0.70 * acc.dp);
    c.add("flops_dp_add", 0.15 * acc.dp);
    c.add("flops_dp_mul", 0.15 * acc.dp);
    c.add("inst_integer", acc.ints);

    // Shared-memory transactions (32 B each).
    c.add("l1_shared_load_transactions",
          acc.sm_read_words * hw::kWordBytes / hw::kSharedTransactionBytes);
    c.add("l1_shared_store_transactions",
          acc.sm_write_words * hw::kWordBytes / hw::kSharedTransactionBytes);

    // Global-memory system events from the cache simulation.
    const auto& h = gmem_.hierarchy();
    c.add("gld_request", gmem_.read_bytes() / 128.0);
    c.add("gst_request", gmem_.write_bytes() / 128.0);
    // Expressed in line-sized units so derive_op_counts' words-per-line
    // conversion recovers the exact words the L1 served.
    c.add("l1_global_load_hit",
          h.traffic().l1_words * hw::kWordBytes / hw::kL1LineBytes);
    c.add("l2_subp0_total_read_sector_queries",
          static_cast<double>(h.l2_read_sector_queries()));
    c.add("l2_subp0_total_write_sector_queries",
          static_cast<double>(h.l2_write_sector_queries()));
    const double l2_hit_sectors =
        static_cast<double>(h.l2_read_sector_queries() +
                            h.l2_write_sector_queries()) -
        static_cast<double>(h.dram_read_sectors() + h.dram_write_sectors());
    for (const char* name :
         {"l2_subp0_read_l1_hit_sectors", "l2_subp1_read_l1_hit_sectors",
          "l2_subp2_read_l1_hit_sectors", "l2_subp3_read_l1_hit_sectors"})
      c.add(name, l2_hit_sectors / 4.0);
    c.add("fb_subp0_read_sectors",
          static_cast<double>(h.dram_read_sectors()) / 2.0);
    c.add("fb_subp1_read_sectors",
          static_cast<double>(h.dram_read_sectors()) / 2.0);
    c.add("fb_subp0_write_sectors",
          static_cast<double>(h.dram_write_sectors()) / 2.0);
    c.add("fb_subp1_write_sectors",
          static_cast<double>(h.dram_write_sectors()) / 2.0);

    std::ostringstream name;
    name << "fmm_N" << tree_.points().size() << "_Q"
         << tree_.params().max_points_per_box << "_" << phase;
    out.workload.name = name.str();
    out.workload.ops = hw::derive_op_counts(c);
    out.workload.compute_utilization = util_c;
    out.workload.memory_utilization = util_m;
    return out;
  }

  const Octree& tree_;
  const InteractionLists& lists_;
  std::size_t ns_;
  std::size_t g_;
  double flops_per_eval_;
  AddressMap addr_;
  GMem gmem_;
};

}  // namespace

std::vector<hw::Workload> FmmGpuProfile::workloads() const {
  std::vector<hw::Workload> out;
  out.reserve(phases.size());
  for (const auto& p : phases) out.push_back(p.workload);
  return out;
}

hw::Workload FmmGpuProfile::total(const std::string& name) const {
  hw::Workload w;
  w.name = name;
  double cu = 0;
  double mu = 0;
  double weight = 0;
  for (const auto& p : phases) {
    w.ops += p.workload.ops;
    const double wt = p.workload.ops.compute_ops() + 1.0;
    cu += p.workload.compute_utilization * wt;
    mu += p.workload.memory_utilization * wt;
    weight += wt;
  }
  w.compute_utilization = weight > 0 ? cu / weight : 1.0;
  w.memory_utilization = weight > 0 ? mu / weight : 1.0;
  return w;
}

hw::CounterSet FmmGpuProfile::total_counters() const {
  hw::CounterSet c;
  for (const auto& p : phases) c += p.counters;
  return c;
}

FmmGpuProfile profile_gpu_execution(const FmmEvaluator& ev) {
  return Profiler(ev).run();
}

}  // namespace eroof::fmm
