// End-to-end benchmark of eroof: one binary, three workloads, every metric
// by name and unit, with a correctness gate. run.py builds and drives it; see
// README.md in this directory for the workloads and the metric definitions.
//
//   eroof_perfbench --workload serve_steady|serve_churn|dynamics_refresh
//                   --seed N --seconds S --trace 0|1 [--tiny]
//                   [--report-dir DIR]
//
// --trace 0 runs the workload once (after five timed set-ups) and prints the
// end-to-end metrics. --trace 1 runs it twice for S/2 seconds each, first
// untraced and then with a trace::TraceSession installed, and prints the
// per-layer metrics of the traced pass plus the traced-vs-untraced difference
// of every end-to-end metric (the tracing overhead). --tiny shrinks every
// input for the smoke test. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// Layers are timed from outside: the spans below are recorded by this file
// around calls into the library's public functions, next to the spans and
// counters the library already emits. Only public entry points with library
// defaults are used (no executor selection, no legacy util::Rng& overloads).
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fit.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "fmm/direct.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/kernel.hpp"
#include "fmm/octree.hpp"
#include "fmm/plan.hpp"
#include "fmm/session.hpp"
#include "hw/powermon.hpp"
#include "hw/soc.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "ubench/campaign.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;
using Clock = std::chrono::steady_clock;

// Initialised before main() runs: the process-start reference of setup_s.
const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

// ---------------------------------------------------------------------------
// Workload constants. They are part of the benchmark's definition: changing
// any of them changes what the benchmark measures.
// ---------------------------------------------------------------------------

constexpr int kServeWorkers = 3;  // + the generator thread = 4 = nproc
constexpr std::size_t kQueueCapacity = 256;
constexpr std::uint32_t kQ = 64;

// serve_steady: 3 sizes x 3 point distributions, Laplace p = 4.
constexpr std::size_t kSteadySizes[3] = {1024, 4096, 8192};
constexpr int kSteadyVariants = 6;       // distinct requests per shape
constexpr double kSteadyClosedFrac = 0.35;
constexpr double kSteadyOpenRate = 24.0;  // req/s, open-loop Poisson phase

// serve_churn: Zipf over (kernel, p), sizes uniform in [1024, 8192].
constexpr std::size_t kChurnMinN = 1024;
constexpr std::size_t kChurnMaxN = 8192;
constexpr std::size_t kChurnPool = 720;  // distinct requests generated
constexpr std::size_t kChurnDeck = 120;
constexpr double kChurnZipfS = 2.5;
constexpr double kChurnClosedFrac = 0.3;
constexpr double kChurnOpenRate = 10.0;  // req/s

// dynamics_refresh.
constexpr std::size_t kDynN = 32768;
constexpr int kDynP = 4;
constexpr double kDynGamma = 0.04;
constexpr double kDynSigma = 0.01;
constexpr std::size_t kRefreshCooldown = 350;  // observations (~50 steps)

// Correctness gate.
constexpr int kServeChecks = 4;   // sampled requests per pass
constexpr int kDynChecks = 3;     // sampled steps per pass
constexpr std::size_t kCheckTargets = 64;

/// Relative L2 tolerance of FMM potentials vs the direct sum on sampled
/// targets, by surface order. About 3x the accuracy the library's own
/// accuracy tests pin for uniform and clustered inputs at each order.
double direct_tolerance(int p) {
  if (p <= 3) return 3e-2;
  if (p == 4) return 1e-2;
  return 3e-3;
}

// The phases with work on every workload. All three use uniform trees (the
// serving protocol's, and the dynamics session configured the same way),
// whose W and X lists are empty, so those two phases never run any work.
constexpr int kPhaseCount = 4;
const char* const kPhaseNames[kPhaseCount] = {"UP", "V", "DOWN", "U"};

const fmm::FmmStats::Phase& phase_of(const fmm::FmmStats& s, int i) {
  const fmm::FmmStats::Phase* const all[kPhaseCount] = {&s.up, &s.v, &s.down,
                                                        &s.u};
  return *all[i];
}

// ---------------------------------------------------------------------------
// Small statistics helpers.
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Metric output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

class MetricSet {
 public:
  /// Adds or overwrites a metric; a non-finite value (a ratio with an empty
  /// base) is stored as 0 so the output stays valid JSON.
  void set(const std::string& name, const std::string& unit, double value) {
    const Metric metric{name, unit, std::isfinite(value) ? value : 0.0};
    for (Metric& m : list_)
      if (m.name == name) {
        m = metric;
        return;
      }
    list_.push_back(metric);
  }
  double get(const std::string& name) const {
    for (const Metric& m : list_)
      if (m.name == name) return m.value;
    return 0.0;
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

// ---------------------------------------------------------------------------
// Trace analysis: per-name span totals and self time inside a time window.
// ---------------------------------------------------------------------------

struct SpanAgg {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Aggregates the spans that start inside [t0_us, t1_us] by
/// "category/name" (the library reuses phase names across categories).
/// Self time is a span's duration minus the time its direct children (same
/// thread, one level deeper, inside its interval) cover.
std::map<std::string, SpanAgg> aggregate_spans(
    const std::vector<trace::SpanEvent>& spans, std::int64_t t0_us,
    std::int64_t t1_us) {
  std::vector<const trace::SpanEvent*> in;
  for (const trace::SpanEvent& s : spans)
    if (s.start_us >= t0_us && s.start_us <= t1_us) in.push_back(&s);
  std::sort(in.begin(), in.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_us != b->start_us) return a->start_us < b->start_us;
    return a->depth < b->depth;
  });
  std::vector<double> child_us(in.size(), 0.0);
  // Per thread, a stack of open ancestors; spans are sorted by start.
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (i > 0 && in[i]->tid != in[i - 1]->tid) stack.clear();
    const trace::SpanEvent& s = *in[i];
    while (!stack.empty()) {
      const trace::SpanEvent& top = *in[stack.back()];
      if (top.depth < s.depth &&
          s.start_us + s.dur_us <= top.start_us + top.dur_us)
        break;
      stack.pop_back();
    }
    if (!stack.empty() && in[stack.back()]->depth == s.depth - 1)
      child_us[stack.back()] += static_cast<double>(s.dur_us);
    stack.push_back(i);
  }
  std::map<std::string, SpanAgg> out;
  for (std::size_t i = 0; i < in.size(); ++i) {
    SpanAgg& a = out[in[i]->category + "/" + in[i]->name];
    ++a.count;
    a.total_us += static_cast<double>(in[i]->dur_us);
    a.self_us +=
        std::max(0.0, static_cast<double>(in[i]->dur_us) - child_us[i]);
  }
  return out;
}

double counter(const std::map<std::string, double>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Roofline inputs: computed flops and bytes per phase from FmmStats tallies.
// Bytes are computed from operand sizes with no cache reuse, so they are an
// upper bound on memory traffic; both are labelled "computed" in the report.
// ---------------------------------------------------------------------------

struct PhaseWork {
  double flops[kPhaseCount] = {};
  double bytes[kPhaseCount] = {};

  void add(const fmm::FmmEvaluator& ev, double times = 1.0) {
    const double kflops = ev.kernel().flops_per_eval();
    const auto ns = static_cast<double>(ev.operators().n_surf());
    const auto g = static_cast<double>(ev.operators().grid_size());
    for (int i = 0; i < kPhaseCount; ++i) {
      const fmm::FmmStats::Phase& p = phase_of(ev.stats(), i);
      // Kernel evaluation: one source point + density streamed per pair.
      double f = p.kernel_evals * kflops;
      double b = p.kernel_evals * 32.0;
      // Complex multiply-accumulate: kernel and source spectra (16 B each).
      f += p.hadamard_cmuls * 8.0;
      b += p.hadamard_cmuls * 32.0;
      // One 3-D FFT of g complex points: 5 g log2 g flops, read + write.
      f += p.ffts * 5.0 * g * std::log2(g);
      b += p.ffts * 32.0 * g;
      // Dense n_surf x n_surf matvec: the matrix dominates the bytes.
      f += p.solve_matvecs * 2.0 * ns * ns;
      b += p.solve_matvecs * 8.0 * ns * ns;
      flops[i] += times * f;
      bytes[i] += times * b;
    }
  }
};

// ---------------------------------------------------------------------------
// Shared per-pass bookkeeping.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string report_dir;
};

/// One pass of a workload: its end-to-end numbers and, when traced, the raw
/// material of the per-layer metrics.
struct Pass {
  double setup_s = 0;
  std::vector<double> setup_each_s;
  /// Throughput phase: its length and the completion time (seconds from its
  /// start) of every op that finished inside it.
  double throughput_s = 0;
  std::vector<double> done_s;
  /// Latency phase: its length, and per op its start (scheduled send time
  /// or step start, seconds from the phase start) and its latency.
  double latency_phase_s = 0;
  std::vector<double> latency_at_s;
  std::vector<double> latency_ms;
  std::vector<double> energy_mj;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;  ///< correctness checks run
  std::vector<std::string> check_failures;
  MetricSet layer;           ///< per-layer metrics (traced pass only)
  std::vector<std::string> notes;  ///< workload-claim observations
};

/// Each timed phase is cut into this many equal windows; a rate or latency
/// quantile is computed per window and the median over windows is reported,
/// so that a stall confined to one window (another tenant on the host)
/// does not move the figure. At the run length in BENCHMARK.json each
/// window still holds >= 200 latency samples.
constexpr int kWindows = 3;

int window_of(double t_s, double phase_s) {
  const int w = static_cast<int>(t_s / phase_s * kWindows);
  return std::clamp(w, 0, kWindows - 1);
}

std::vector<double> window_throughputs(const Pass& p) {
  std::vector<double> count(kWindows, 0.0);
  for (const double t : p.done_s) ++count[window_of(t, p.throughput_s)];
  for (double& c : count) c /= p.throughput_s / kWindows;
  return count;
}

double windowed_latency(const Pass& p, double q) {
  std::vector<std::vector<double>> win(kWindows);
  for (std::size_t i = 0; i < p.latency_ms.size(); ++i)
    win[window_of(p.latency_at_s[i], p.latency_phase_s)].push_back(
        p.latency_ms[i]);
  std::vector<double> per;
  for (const auto& w : win) per.push_back(quantile(w, q));
  return quantile(per, 0.5);
}

void end_to_end(const Pass& p, MetricSet* out) {
  out->set("throughput_per_s", "1/s", quantile(window_throughputs(p), 0.5));
  out->set("latency_p50_ms", "ms", windowed_latency(p, 0.50));
  out->set("latency_p95_ms", "ms", windowed_latency(p, 0.95));
  out->set("setup_s", "s", p.setup_s);
  out->set("peak_rss_mb", "MB", peak_rss_mb());
  out->set("model_energy_mj", "mJ", mean(p.energy_mj));
}

/// Every per-layer metric, in BENCHMARK.json order, zero until a workload
/// that exercises the layer sets it.
void declare_layer_metrics(MetricSet* m) {
  const std::pair<const char*, const char*> names[] = {
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.plan_cache.hit_ratio", "ratio"},
      {"serve.plan_cache.hits", "count"},
      {"serve.plan_cache.misses", "count"},
      {"serve.plan_cache.evictions", "count"},
      {"serve.schedule_memo.hit_ratio", "ratio"},
      {"serve.schedule_memo.lookups", "count"},
      {"loadgen.lag_ms_p95", "ms"},
      {"fmm.octree.build_ms", "ms"},
      {"fmm.evaluator.construct_ms", "ms"},
      {"fmm.plan.build_ms", "ms"},
      {"fmm.operators.builds", "count"},
      {"fmm.gpu_profile_ms", "ms"},
      {"fmm.evaluate_ms", "ms"},
      {"fmm.session.move_ms", "ms"},
      {"fmm.session.refit_ratio", "ratio"},
      {"fmm.session.moves", "count"},
      {"core.schedule.predict_ms", "ms"},
      {"core.schedule.dp_ms", "ms"},
      {"core.schedule_reuse.retunes", "count"},
      {"core.refresh.refits", "count"},
      {"dynamics.refresh_ms", "ms"},
      {"dynamics.advance_ms", "ms"},
      {"ubench.campaign_ms", "ms"},
      {"core.fit_ms", "ms"},
      {"util.taskgraph.parallel_eff", "ratio"},
  };
  for (const auto& [name, unit] : names) m->set(name, unit, 0.0);
  for (const char* ph : kPhaseNames) {
    const std::string base = std::string("fmm.phase.") + ph;
    m->set(base + ".busy_ms", "ms", 0.0);
    m->set(base + ".flop_per_byte", "flop/B", 0.0);
    m->set(base + ".gflops", "GFLOP/s", 0.0);
  }
}

/// Mean self time per call of a "category/name" span in an aggregate.
double mean_self_ms(const std::map<std::string, SpanAgg>& agg,
                    const std::string& key) {
  const auto it = agg.find(key);
  if (it == agg.end()) return 0.0;
  return ratio(it->second.self_us / 1e3,
               static_cast<double>(it->second.count));
}

/// Mean duration per call of a "category/name" span in an aggregate.
double mean_total_ms(const std::map<std::string, SpanAgg>& agg,
                     const std::string& key) {
  const auto it = agg.find(key);
  if (it == agg.end()) return 0.0;
  return ratio(it->second.total_us / 1e3,
               static_cast<double>(it->second.count));
}

/// Per-phase busy time per evaluate and the roofline inputs, from the
/// library's spans in `timed` (the timed phases) and the computed work.
void phase_metrics(const std::map<std::string, SpanAgg>& timed,
                   const PhaseWork& work, MetricSet* m) {
  const auto evals = timed.find("fmm/evaluate");
  const double n_evals =
      evals == timed.end() ? 0.0 : static_cast<double>(evals->second.count);
  m->set("fmm.evaluate_ms", "ms", mean_total_ms(timed, "fmm/evaluate"));
  for (int i = 0; i < kPhaseCount; ++i) {
    const auto busy =
        timed.find(std::string("fmm.phase/") + kPhaseNames[i]);
    const double busy_ms =
        busy == timed.end() ? 0.0 : busy->second.total_us / 1e3;
    const std::string base = std::string("fmm.phase.") + kPhaseNames[i];
    m->set(base + ".busy_ms", "ms", ratio(busy_ms, n_evals));
    m->set(base + ".flop_per_byte", "flop/B",
           ratio(work.flops[i], work.bytes[i]));
    m->set(base + ".gflops", "GFLOP/s", ratio(work.flops[i], busy_ms * 1e6));
  }
}

/// Times `fn` `reps` times inside a benchmark span; returns the median ms.
double replay_ms(const char* span_name, int reps,
                 const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    trace::ScopedSpan span(span_name, "perfbench.replay");
    const auto t = Clock::now();
    fn();
    ms.push_back(ms_between(t, Clock::now()));
  }
  return quantile(ms, 0.5);
}

/// The model-fitting layers of every workload's set-up, replayed with the
/// same calls ScheduleContext/TuneContext::tegra_default make.
void replay_model_fit(MetricSet* m) {
  const hw::Soc soc = hw::Soc::tegra_k1();
  const hw::PowerMon meter;
  std::vector<ub::Sample> campaign;
  m->set("ubench.campaign_ms", "ms",
         replay_ms("ub::paper_campaign", 3, [&] {
           campaign = ub::paper_campaign(soc, meter, util::RngStream(42));
         }));
  std::vector<model::FitSample> train;
  for (const ub::Sample& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      train.push_back(model::to_fit_sample(s.meas));
  m->set("core.fit_ms", "ms", replay_ms("model::fit_energy_model", 3, [&] {
           (void)model::fit_energy_model(train);
         }));
}

/// Parallel efficiency of one solve on this workload's input: the serial
/// evaluate time over (the nproc-thread evaluate time x nproc). Measured by
/// replaying evaluate() at both thread counts; the phase spans of the
/// default bulk-synchronous executor hold wall time, not busy time, so they
/// cannot give this ratio themselves.
double parallel_efficiency(fmm::FmmEvaluator& ev,
                           const std::vector<double>& dens) {
  const int threads = omp_get_max_threads();
  std::vector<double> out(dens.size());
  ev.evaluate_into(dens, out);  // first call sizes the evaluator's buffers
  omp_set_num_threads(1);
  const double t1 = replay_ms("FmmEvaluator::evaluate[1 thread]", 3,
                              [&] { ev.evaluate_into(dens, out); });
  omp_set_num_threads(threads);
  const double tp = replay_ms("FmmEvaluator::evaluate[nproc threads]", 3,
                              [&] { ev.evaluate_into(dens, out); });
  return ratio(t1, tp * threads);
}

/// Direct-sum check on sampled targets. Returns the relative L2 error.
double direct_error(const fmm::Kernel& kernel,
                    const std::vector<fmm::Vec3>& points,
                    const std::vector<double>& dens,
                    const std::vector<double>& phi, util::RngStream stream) {
  util::Rng rng = stream.rng();
  std::vector<fmm::Vec3> targets;
  std::vector<double> got;
  for (std::size_t k = 0; k < kCheckTargets && k < points.size(); ++k) {
    const std::size_t i = rng.below(points.size());
    targets.push_back(points[i]);
    got.push_back(phi[i]);
  }
  const std::vector<double> want =
      fmm::direct_sum(kernel, targets, points, dens);
  return fmm::rel_l2_error(got, want);
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Serving workloads.
// ---------------------------------------------------------------------------

struct ServeInputs {
  bool churn = false;
  std::vector<serve::FmmRequest> pool;
  std::vector<std::size_t> prewarm;  ///< one pool entry per shape (steady)
  /// Pool entries in send order: the closed loop consumes a prefix, the
  /// open loop continues where it stopped.
  std::vector<std::size_t> sequence;
  std::vector<double> arrival_s;     ///< open-loop send times
  std::set<std::size_t> sampled;     ///< pool entries the gate checks
  double closed_s = 0, open_s = 0;
};

serve::WorkloadConfig request_config(std::uint64_t seed, std::size_t n,
                                     serve::KernelSpec spec, int p) {
  serve::WorkloadConfig cfg;
  cfg.seed = seed;
  cfg.sizes = {n};
  cfg.kernels = {spec};
  cfg.p = p;
  cfg.max_points_per_box = kQ;
  return cfg;
}

/// The churn key space, most popular first: 5 kernel specs x p in {4,3,5};
/// the tree depth (2 or 3 at Q = 64) follows from the drawn size.
std::vector<std::pair<serve::KernelSpec, int>> churn_keys() {
  const serve::KernelSpec specs[5] = {
      {serve::KernelKind::kLaplace, 0.0},
      {serve::KernelKind::kYukawa, 1.5},
      {serve::KernelKind::kGaussian, 0.5},
      {serve::KernelKind::kYukawa, 4.0},
      {serve::KernelKind::kGaussian, 0.25},
  };
  std::vector<std::pair<serve::KernelSpec, int>> keys;
  for (const int p : {4, 3, 5})
    for (const serve::KernelSpec& s : specs) keys.push_back({s, p});
  return keys;
}

/// Indices 0..n-1 in a seeded random order (Fisher-Yates).
std::vector<std::size_t> shuffled(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  return v;
}

ServeInputs make_serve_inputs(bool churn, const Options& opt) {
  ServeInputs in;
  in.churn = churn;
  const util::RngStream root =
      util::RngStream(opt.seed).fork(churn ? "serve_churn" : "serve_steady");
  const std::uint64_t req_seed = root.fork("requests").seed();
  const std::size_t shrink = opt.tiny ? 8 : 1;
  util::Rng rng = root.fork("sequence").rng();

  // Inputs are drawn in stratified decks: every deck holds the workload's
  // exact mix in a seeded order, so that a run's mix does not drift with
  // the seed; the seed still decides every request and its position.
  if (!churn) {
    for (const std::size_t n : kSteadySizes)
      for (int v = 0; v < kSteadyVariants; ++v)
        for (int d = 0; d < 3; ++d) {
          const auto idx = static_cast<std::uint64_t>(3 * v + d);
          const auto cfg = request_config(
              req_seed + n, n / shrink, {serve::KernelKind::kLaplace, 0.0}, 4);
          if (v == 0) in.prewarm.push_back(in.pool.size());
          in.pool.push_back(serve::make_request(cfg, idx));
        }
    // Deck: each of the 9 shapes once, with a random variant.
    while (in.sequence.size() < 20000)
      for (const std::size_t shape : shuffled(9, rng)) {
        const std::size_t size = shape / 3, dist = shape % 3;
        const std::size_t v = rng.below(kSteadyVariants);
        in.sequence.push_back((size * kSteadyVariants + v) * 3 + dist);
      }
  } else {
    // Deck of kChurnDeck requests: (kernel, p) keys in exact Zipf
    // proportions (largest remainder) and sizes one per stratum of
    // [kChurnMinN, kChurnMaxN], each shuffled independently.
    const auto keys = churn_keys();
    std::vector<double> w;
    double z = 0;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      w.push_back(1.0 / std::pow(static_cast<double>(k + 1), kChurnZipfS));
      z += w.back();
    }
    std::vector<std::size_t> count(keys.size());
    std::vector<std::pair<double, std::size_t>> rem;
    std::size_t given = 0;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const double share = kChurnDeck * w[k] / z;
      count[k] = static_cast<std::size_t>(share);
      given += count[k];
      rem.push_back({share - static_cast<double>(count[k]), k});
    }
    std::sort(rem.rbegin(), rem.rend());
    for (std::size_t i = 0; given < kChurnDeck; ++i, ++given)
      ++count[rem[i].second];
    std::vector<std::size_t> deck;
    for (std::size_t k = 0; k < keys.size(); ++k)
      deck.insert(deck.end(), count[k], k);

    const std::size_t pool = opt.tiny ? 48 : kChurnPool;
    const double width = static_cast<double>(kChurnMaxN - kChurnMinN + 1);
    while (in.pool.size() < pool) {
      const auto key_order = shuffled(kChurnDeck, rng);
      const auto size_order = shuffled(kChurnDeck, rng);
      for (std::size_t j = 0; j < kChurnDeck && in.pool.size() < pool; ++j) {
        const double stratum =
            (static_cast<double>(size_order[j]) + rng.uniform()) / kChurnDeck;
        const auto n =
            (kChurnMinN + static_cast<std::size_t>(stratum * width)) / shrink;
        const auto& [spec, p] = keys[deck[key_order[j]]];
        in.pool.push_back(serve::make_request(
            request_config(req_seed, n, spec, p), in.pool.size()));
      }
    }
    // Every request is new until the pool wraps.
    for (std::size_t i = 0; i < in.pool.size(); ++i) in.sequence.push_back(i);
  }

  const double closed_frac = churn ? kChurnClosedFrac : kSteadyClosedFrac;
  const double rate = churn ? kChurnOpenRate : kSteadyOpenRate;
  in.closed_s = closed_frac * opt.seconds;
  in.open_s = opt.seconds - in.closed_s;

  util::Rng arrivals = root.fork("arrivals").rng();
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - arrivals.uniform()) / rate;
    if (t >= in.open_s) break;
    in.arrival_s.push_back(t);
  }
  util::Rng sample = root.fork("sample").rng();
  // Churn walks the pool in order: sample among the first requests sent.
  const std::size_t span = churn ? 8 : in.pool.size();
  while (static_cast<int>(in.sampled.size()) < kServeChecks)
    in.sampled.insert(sample.below(span));
  return in;
}

struct ServeOp {
  std::size_t pool = 0;
  serve::FmmResponse resp;
};

/// The serving protocol's tree for a request: fixed domain, uniform depth
/// from (n, Q) -- what FmmServer builds for it.
fmm::Octree::Params serve_tree_params(const serve::FmmRequest& req) {
  fmm::Octree::Params tp;
  tp.max_points_per_box = req.max_points_per_box;
  tp.uniform_depth = fmm::Octree::uniform_depth_for(req.points.size(),
                                                    req.max_points_per_box);
  tp.domain = serve::kServeDomain;
  return tp;
}

/// Builds the server (and, for steady, serves every shape once). Returns the
/// seconds from `t0` to the point where the first timed request can go out.
double serve_setup(const ServeInputs& in, Clock::time_point t0,
                   std::unique_ptr<serve::FmmServer>* server,
                   std::vector<std::string>* failures) {
  server->reset();
  std::shared_ptr<const serve::ScheduleContext> ctx;
  {
    trace::ScopedSpan span("ScheduleContext::tegra_default", "perfbench");
    ctx = serve::ScheduleContext::tegra_default();
  }
  serve::ServerConfig cfg;
  cfg.workers = kServeWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.schedule_ctx = ctx;
  {
    trace::ScopedSpan span("FmmServer::FmmServer", "perfbench");
    *server = std::make_unique<serve::FmmServer>(cfg);
  }
  for (const std::size_t i : in.prewarm) {
    trace::ScopedSpan span("FmmServer::serve_now", "perfbench");
    const serve::FmmResponse r = (*server)->serve_now(in.pool[i]);
    if (r.status != serve::ServeStatus::kOk)
      failures->push_back("pre-warm request " + std::to_string(i) +
                          " failed: " + r.error);
  }
  return seconds_between(t0, Clock::now());
}

struct ServeTimed {
  std::vector<ServeOp> kept;  ///< first response of each sampled entry
  std::vector<double> queue_ms_open, service_ms, lag_ms;
  std::vector<std::size_t> served;  ///< pool entry of every kOk response
  std::int64_t t0_us = 0, t1_us = 0;  ///< trace window (traced pass)
};

/// Runs the closed-loop then the open-loop phase against `server`.
void serve_timed(const ServeInputs& in, serve::FmmServer& server, Pass* pass,
                 ServeTimed* tm) {
  std::set<std::size_t> kept_entries;
  std::uint64_t next_id = 1;
  auto submit = [&](std::size_t entry) {
    serve::FmmRequest req = in.pool[entry];
    req.id = next_id++;
    trace::ScopedSpan span("FmmServer::submit", "perfbench");
    span.arg("request_id", static_cast<double>(req.id));
    return server.submit(std::move(req));
  };
  // Accounts one response; returns true when it counts as served.
  auto account = [&](std::size_t entry, serve::FmmResponse resp) {
    ++pass->attempted;
    if (resp.status != serve::ServeStatus::kOk) {
      ++pass->failed;
      return false;
    }
    pass->energy_mj.push_back(1e3 * resp.schedule.pred_energy_j);
    tm->service_ms.push_back(resp.service_us / 1e3);
    tm->served.push_back(entry);
    if (in.sampled.count(entry) && kept_entries.insert(entry).second)
      tm->kept.push_back({entry, std::move(resp)});
    return true;
  };

  struct InFlight {
    std::size_t entry = 0;
    std::future<serve::FmmResponse> fut;
  };

  // Closed loop: one outstanding request per worker.
  const auto closed_t0 = Clock::now();
  const auto closed_end =
      closed_t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(in.closed_s));
  std::vector<std::optional<InFlight>> slots(kServeWorkers);
  std::size_t cursor = 0;
  auto next_entry = [&] { return in.sequence[cursor++ % in.sequence.size()]; };
  auto next_closed = [&] {
    const std::size_t e = next_entry();
    return InFlight{e, submit(e)};
  };
  {
    trace::ScopedSpan span("perfbench.closed_loop", "perfbench");
    for (auto& s : slots) s = next_closed();
    bool open = true;
    while (open) {
      bool any = false;
      for (auto& s : slots) {
        if (!s ||
            s->fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
          continue;
        any = true;
        const auto now = Clock::now();
        const bool before_end = now < closed_end;
        if (account(s->entry, s->fut.get()) && before_end)
          pass->done_s.push_back(seconds_between(closed_t0, now));
        s.reset();
        if (before_end) s = next_closed();
      }
      open = std::any_of(slots.begin(), slots.end(),
                         [](const auto& s) { return s.has_value(); });
      if (!any && open)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  pass->throughput_s = in.closed_s;

  // Open loop: Poisson arrivals on a fixed schedule; each request is timed
  // from its scheduled send time.
  struct Pending {
    InFlight f;
    double due_s = 0;  ///< scheduled send time, from the phase start
    double lag_ms = 0;
  };
  std::vector<Pending> pending;
  auto harvest = [&](bool wait) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (!wait && it->f.fut.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
        ++it;
        continue;
      }
      serve::FmmResponse resp = it->f.fut.get();
      const double queue_ms = resp.queue_us / 1e3;
      const double latency = it->lag_ms + queue_ms + resp.service_us / 1e3;
      if (account(it->f.entry, std::move(resp))) {
        pass->latency_at_s.push_back(it->due_s);
        pass->latency_ms.push_back(latency);
        tm->queue_ms_open.push_back(queue_ms);
      }
      it = pending.erase(it);
    }
  };
  {
    trace::ScopedSpan span("perfbench.open_loop", "perfbench");
    const auto open_t0 = Clock::now();
    for (std::size_t k = 0; k < in.arrival_s.size(); ++k) {
      const auto due = open_t0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         in.arrival_s[k]));
      harvest(false);
      std::this_thread::sleep_until(due);
      const double lag = ms_between(due, Clock::now());
      tm->lag_ms.push_back(lag);
      const std::size_t e = next_entry();
      pending.push_back({{e, submit(e)}, in.arrival_s[k], lag});
    }
    harvest(true);
    pass->latency_phase_s = in.open_s;
  }
}

/// The correctness gate for served requests: bitwise equal to a fresh
/// single-threaded FmmEvaluator, and within tolerance of the direct sum on
/// sampled targets.
void serve_check(const ServeInputs& in, const ServeTimed& tm,
                 const util::RngStream& stream, Pass* pass) {
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  for (const ServeOp& op : tm.kept) {
    const serve::FmmRequest& req = in.pool[op.pool];
    const auto kernel = serve::make_kernel(req.kernel);
    fmm::FmmConfig fcfg;
    fcfg.p = req.p;
    fmm::FmmEvaluator fresh(*kernel, req.points, serve_tree_params(req), fcfg);
    const std::vector<double> ref = fresh.evaluate(req.densities);
    ++pass->checks;
    const std::string what = "request pool#" + std::to_string(op.pool) +
                             " (" + op.resp.plan_key.substr(0, 40) + ")";
    if (!bits_equal(op.resp.potentials, ref)) {
      ++pass->failed;
      pass->check_failures.push_back(what + ": not bitwise equal to a fresh "
                                            "evaluator");
      continue;
    }
    const double err = direct_error(*kernel, req.points, req.densities,
                                    op.resp.potentials, stream.fork(op.pool));
    if (!(err < direct_tolerance(req.p))) {
      ++pass->failed;
      pass->check_failures.push_back(what + ": rel. error " +
                                     std::to_string(err) + " vs direct sum");
    }
  }
  omp_set_num_threads(threads);
}

/// Per-layer metrics of a traced serve pass.
void serve_layers(const ServeInputs& in, const ServeTimed& tm,
                  const serve::FmmServer::Stats& s0,
                  const serve::FmmServer::Stats& s1,
                  const std::map<std::string, double>& c0,
                  const std::map<std::string, double>& c1,
                  const trace::TraceSession& ts, Pass* pass) {
  MetricSet& m = pass->layer;
  m.set("serve.queue_wait_ms_p50", "ms", quantile(tm.queue_ms_open, 0.5));
  m.set("serve.service_ms_p50", "ms", quantile(tm.service_ms, 0.5));
  const double hits = static_cast<double>(s1.cache.hits - s0.cache.hits);
  const double misses =
      static_cast<double>(s1.cache.misses - s0.cache.misses);
  m.set("serve.plan_cache.hit_ratio", "ratio", ratio(hits, hits + misses));
  m.set("serve.plan_cache.hits", "count", hits);
  m.set("serve.plan_cache.misses", "count", misses);
  m.set("serve.plan_cache.evictions", "count",
        static_cast<double>(s1.cache.evictions - s0.cache.evictions));
  const double mh = counter(c1, "core.schedule_memo.hit") -
                    counter(c0, "core.schedule_memo.hit");
  const double mm = counter(c1, "core.schedule_memo.miss") -
                    counter(c0, "core.schedule_memo.miss");
  m.set("serve.schedule_memo.hit_ratio", "ratio", ratio(mh, mh + mm));
  m.set("serve.schedule_memo.lookups", "count", mh + mm);
  m.set("loadgen.lag_ms_p95", "ms", quantile(tm.lag_ms, 0.95));
  m.set("fmm.operators.builds", "count",
        counter(c1, "fmm.operators.builds") -
            counter(c0, "fmm.operators.builds"));

  const std::vector<trace::SpanEvent> spans = ts.spans();
  const auto agg = aggregate_spans(spans, 0, ts.now_us());
  m.set("fmm.gpu_profile_ms", "ms",
        mean_total_ms(agg, "fmm.profile/profile_gpu_execution"));
  m.set("core.schedule.predict_ms", "ms",
        mean_total_ms(agg, "model.schedule/predict_phase_grid"));
  m.set("core.schedule.dp_ms", "ms",
        mean_total_ms(agg, "model.schedule/schedule_phases"));

  // Replays of the fmm constructors on the requests this pass served, and
  // the computed work of every served solve.
  std::map<std::size_t, double> times;
  for (const std::size_t e : tm.served) times[e] += 1.0;
  std::map<std::string, std::shared_ptr<const fmm::FmmPlan>> plans;
  std::vector<double> octree_ms, plan_ms, eval_ms;
  PhaseWork work;
  const serve::FmmRequest* largest = nullptr;
  for (const auto& [entry, count] : times) {
    const serve::FmmRequest& req = in.pool[entry];
    std::optional<fmm::Octree> tree;
    octree_ms.push_back(replay_ms("Octree::Octree", 1, [&] {
      tree.emplace(req.points, serve_tree_params(req));
    }));
    const std::string key =
        serve::plan_cache_key(req.kernel, req.p, req.max_points_per_box,
                              tree->max_depth(), tree->domain());
    auto& plan = plans[key];
    if (!plan) {
      fmm::FmmConfig fcfg;
      fcfg.p = req.p;
      plan_ms.push_back(replay_ms("FmmPlan::FmmPlan", 1, [&] {
        plan = std::make_shared<const fmm::FmmPlan>(
            serve::make_kernel(req.kernel), tree->domain().half,
            tree->max_depth(), fcfg);
      }));
    }
    std::optional<fmm::FmmEvaluator> ev;
    eval_ms.push_back(replay_ms("FmmEvaluator::FmmEvaluator", 1, [&] {
      ev.emplace(plan, std::move(*tree));
    }));
    work.add(*ev, count);
    if (!largest || req.points.size() > largest->points.size()) largest = &req;
  }
  m.set("fmm.octree.build_ms", "ms", mean(octree_ms));
  m.set("fmm.plan.build_ms", "ms", mean(plan_ms));
  m.set("fmm.evaluator.construct_ms", "ms", mean(eval_ms));
  phase_metrics(aggregate_spans(spans, tm.t0_us, tm.t1_us), work, &m);

  if (largest) {
    const auto kernel = serve::make_kernel(largest->kernel);
    fmm::FmmConfig fcfg;
    fcfg.p = largest->p;
    fmm::FmmEvaluator ev(*kernel, largest->points, serve_tree_params(*largest),
                         fcfg);
    m.set("util.taskgraph.parallel_eff", "ratio",
          parallel_efficiency(ev, largest->densities));
  }
  replay_model_fit(&m);

  if (!in.churn) {
    if (hits + misses > 0 && misses > 0)
      pass->notes.push_back("serve_steady: plan-cache misses in the timed "
                            "phase (expected none)");
    if (m.get("fmm.operators.builds") != 0)
      pass->notes.push_back("serve_steady: operator builds in the timed "
                            "phase (expected none)");
  }
}

/// One full pass of a serving workload. `setups` >= 1 set-ups are timed;
/// the last one's server runs the timed phases.
Pass serve_pass(const ServeInputs& in, const Options& opt,
                double seconds_scale, int setups, Clock::time_point t0,
                trace::TraceSession* ts) {
  Pass pass;
  ServeInputs run = in;
  run.closed_s *= seconds_scale;
  run.open_s *= seconds_scale;
  if (seconds_scale != 1.0) {
    // Keep only the arrivals inside the shortened open-loop phase.
    std::size_t k = 0;
    while (k < run.arrival_s.size() && run.arrival_s[k] < run.open_s) ++k;
    run.arrival_s.resize(k);
  }

  std::unique_ptr<serve::FmmServer> server;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    const auto start = i == 0 ? t0 : Clock::now();
    trace::ScopedSpan span("perfbench.setup", "perfbench");
    setup_s.push_back(serve_setup(run, start, &server, &pass.check_failures));
  }
  pass.setup_s = quantile(setup_s, 0.5);
  pass.setup_each_s = setup_s;
  pass.failed += pass.check_failures.size();

  ServeTimed tm;
  const serve::FmmServer::Stats s0 = server->stats();
  std::map<std::string, double> c0;
  if (ts) {
    c0 = ts->counter_totals();
    tm.t0_us = ts->now_us();
  }
  serve_timed(run, *server, &pass, &tm);
  const serve::FmmServer::Stats s1 = server->stats();
  std::map<std::string, double> c1;
  if (ts) {
    c1 = ts->counter_totals();
    tm.t1_us = ts->now_us();
  }
  server->shutdown();
  pass.notes.push_back(
      "served " + std::to_string(tm.served.size()) + " requests, " +
      std::to_string(pass.latency_ms.size()) + " open-loop latency samples, " +
      "plan cache hits/misses/evictions " +
      std::to_string(s1.cache.hits - s0.cache.hits) + "/" +
      std::to_string(s1.cache.misses - s0.cache.misses) + "/" +
      std::to_string(s1.cache.evictions - s0.cache.evictions));

  if (ts) {
    trace::install(nullptr);
    serve_layers(run, tm, s0, s1, c0, c1, *ts, &pass);
  }
  const util::RngStream check_stream =
      util::RngStream(opt.seed).fork("check").fork(ts ? "traced" : "plain");
  serve_check(run, tm, check_stream, &pass);
  return pass;
}

// ---------------------------------------------------------------------------
// Dynamics workload.
// ---------------------------------------------------------------------------

/// Records a span around the wrapped mover's advance().
class SpannedMover final : public dynamics::Mover {
 public:
  explicit SpannedMover(dynamics::Mover& inner) : inner_(inner) {}
  void advance(dynamics::ParticleSystem& ps) override {
    trace::ScopedSpan span("Mover::advance", "perfbench");
    inner_.advance(ps);
  }

 private:
  dynamics::Mover& inner_;
};

struct DynInputs {
  std::size_t n = kDynN;
  std::uint64_t particle_seed = 0;
  std::uint64_t mover_seed = 0;
  std::uint64_t measure_seed = 0;
  hw::ThermalRamp ramp;
  std::set<std::uint64_t> sampled_steps;  ///< timed-step ordinals checked
};

DynInputs make_dyn_inputs(const Options& opt) {
  const util::RngStream root =
      util::RngStream(opt.seed).fork("dynamics_refresh");
  DynInputs in;
  in.n = opt.tiny ? 2048 : kDynN;
  in.particle_seed = root.fork("particles").seed();
  in.mover_seed = root.fork("mover").seed();
  in.measure_seed = root.fork("measure").seed();
  util::Rng r = root.fork("ramp").rng();
  // Leakage climbs from 1 to 1.75..1.85x over 50..70 steps starting at step
  // 8..12, then holds: refits fire during the climb and stop after it.
  in.ramp.start_scale = 1.0;
  in.ramp.end_scale = r.uniform(1.75, 1.85);
  in.ramp.ramp_start = 8 + r.below(5);
  in.ramp.ramp_steps = 50 + r.below(21);
  in.ramp.wobble_sigma = 0.01;
  in.ramp.seed = root.fork("wobble").seed();
  util::Rng s = root.fork("sample").rng();
  while (static_cast<int>(in.sampled_steps.size()) < kDynChecks)
    in.sampled_steps.insert(s.below(opt.tiny ? 4 : 60));
  return in;
}

dynamics::DynamicsEngine::Config engine_config(
    const DynInputs& in, std::shared_ptr<const dynamics::TuneContext> ctx) {
  dynamics::DynamicsEngine::Config cfg;
  cfg.session.tree.max_points_per_box = kQ;
  cfg.session.tree.uniform_depth = fmm::Octree::uniform_depth_for(in.n, kQ);
  cfg.session.tree.domain = fmm::Box{{0.5, 0.5, 0.5}, 0.5};
  cfg.session.fmm.p = kDynP;
  cfg.tuning.context = std::move(ctx);
  cfg.tuning.refresh.enabled = true;
  cfg.tuning.refresh.ramp = in.ramp;
  cfg.tuning.refresh.measure_seed = in.measure_seed;
  cfg.tuning.refresh.online.cooldown = kRefreshCooldown;
  return cfg;
}

struct DynState {
  std::unique_ptr<dynamics::LangevinMover> mover;
  std::unique_ptr<SpannedMover> spanned;
  std::unique_ptr<dynamics::DynamicsEngine> engine;
};

double dyn_setup(const DynInputs& in, Clock::time_point t0, DynState* st) {
  st->engine.reset();
  std::shared_ptr<const dynamics::TuneContext> ctx;
  {
    trace::ScopedSpan span("TuneContext::tegra_default", "perfbench");
    ctx = dynamics::TuneContext::tegra_default();
  }
  const fmm::Box domain{{0.5, 0.5, 0.5}, 0.5};
  {
    trace::ScopedSpan span("DynamicsEngine::DynamicsEngine", "perfbench");
    st->engine = std::make_unique<dynamics::DynamicsEngine>(
        std::make_shared<const fmm::LaplaceKernel>(),
        dynamics::ParticleSystem::random(in.n, domain, in.particle_seed),
        engine_config(in, ctx));
  }
  st->mover = std::make_unique<dynamics::LangevinMover>(
      in.mover_seed, dynamics::LangevinMover::Params{
                         .dt = 1e-2, .gamma = kDynGamma, .sigma = kDynSigma});
  st->spanned = std::make_unique<SpannedMover>(*st->mover);
  {
    trace::ScopedSpan span("DynamicsEngine::step", "perfbench");
    span.arg("step", 0);
    st->engine->step(*st->spanned);  // step 0: first profile + search
  }
  return seconds_between(t0, Clock::now());
}

struct DynSample {
  std::vector<fmm::Vec3> pos;
  std::vector<double> phi;
  std::uint64_t step = 0;
};

Pass dyn_pass(const DynInputs& in, const Options& opt, double seconds,
              int setups, Clock::time_point t0, trace::TraceSession* ts) {
  Pass pass;
  DynState st;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    const auto start = i == 0 ? t0 : Clock::now();
    trace::ScopedSpan span("perfbench.setup", "perfbench");
    setup_s.push_back(dyn_setup(in, start, &st));
  }
  pass.setup_s = quantile(setup_s, 0.5);
  pass.setup_each_s = setup_s;
  dynamics::DynamicsEngine& engine = *st.engine;

  // Traced pass only: a second session follows the same positions so that
  // FmmSession::move_to can be timed from outside the engine's step.
  std::optional<fmm::FmmSession> shadow;
  if (ts)
    shadow.emplace(std::make_shared<const fmm::LaplaceKernel>(),
                   engine.particles().pos, engine.session().config());
  std::vector<double> move_ms;
  PhaseWork work;

  std::map<std::string, double> c0;
  std::int64_t w0 = 0;
  if (ts) {
    c0 = ts->counter_totals();
    w0 = ts->now_us();
  }
  const fmm::FmmSession::Stats m0 = engine.session().stats();
  std::vector<DynSample> samples;
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration<double>(seconds);
  std::uint64_t steps = 0;
  while (Clock::now() < end) {
    const auto t = Clock::now();
    {
      trace::ScopedSpan span("DynamicsEngine::step", "perfbench");
      span.arg("step", static_cast<double>(steps + 1));
      engine.step(*st.spanned);
    }
    const auto done = Clock::now();
    pass.latency_at_s.push_back(seconds_between(begin, t));
    pass.latency_ms.push_back(ms_between(t, done));
    pass.done_s.push_back(seconds_between(begin, done));
    ++steps;
    if (const model::PhaseSchedule* s = engine.schedule())
      pass.energy_mj.push_back(1e3 * s->pred_energy_j);
    if (in.sampled_steps.count(steps - 1)) {
      const auto phi = engine.potentials();
      samples.push_back({engine.particles().pos,
                         std::vector<double>(phi.begin(), phi.end()), steps});
    }
    if (ts) {
      work.add(engine.session().evaluator());
      trace::ScopedSpan span("FmmSession::move_to", "perfbench.replay");
      const auto mt = Clock::now();
      shadow->move_to(engine.particles().pos);
      move_ms.push_back(ms_between(mt, Clock::now()));
    }
  }
  // The last step ends after `seconds`; the phase is as long as it ran.
  pass.throughput_s = seconds_between(begin, Clock::now());
  pass.latency_phase_s = pass.throughput_s;
  pass.attempted = steps;
  const fmm::FmmSession::Stats m1 = engine.session().stats();
  pass.notes.push_back(
      std::to_string(steps) + " timed steps; session refits " +
      std::to_string(m1.refits - m0.refits) + " of " +
      std::to_string(m1.moves - m0.moves) + " moves; engine tunes " +
      std::to_string(engine.stats().tunes) + ", model refreshes " +
      std::to_string(engine.stats().refreshes));

  if (ts) {
    const std::int64_t w1 = ts->now_us();
    const auto c1 = ts->counter_totals();
    trace::install(nullptr);
    MetricSet& m = pass.layer;
    const std::vector<trace::SpanEvent> spans = ts->spans();
    const auto agg = aggregate_spans(spans, 0, w1);
    const auto timed = aggregate_spans(spans, w0, w1);
    m.set("fmm.session.move_ms", "ms", mean(move_ms));
    const double moves = static_cast<double>(m1.moves - m0.moves);
    m.set("fmm.session.moves", "count", moves);
    m.set("fmm.session.refit_ratio", "ratio",
          ratio(static_cast<double>(m1.refits - m0.refits), moves));
    m.set("fmm.operators.builds", "count",
          counter(c1, "fmm.operators.builds") -
              counter(c0, "fmm.operators.builds"));
    m.set("core.schedule_reuse.retunes", "count",
          counter(c1, "core.schedule_reuse.retune") -
              counter(c0, "core.schedule_reuse.retune"));
    m.set("core.refresh.refits", "count",
          counter(c1, "core.refresh.refits") -
              counter(c0, "core.refresh.refits"));
    m.set("dynamics.refresh_ms", "ms",
          mean_self_ms(timed, "dynamics/dynamics.refresh"));
    m.set("dynamics.advance_ms", "ms",
          mean_self_ms(timed, "perfbench/Mover::advance"));
    m.set("fmm.gpu_profile_ms", "ms",
          mean_total_ms(agg, "fmm.profile/profile_gpu_execution"));
    m.set("core.schedule.predict_ms", "ms",
          mean_total_ms(agg, "model.schedule/predict_phase_grid"));
    m.set("core.schedule.dp_ms", "ms",
          mean_total_ms(agg, "model.schedule/schedule_phases"));
    phase_metrics(timed, work, &m);

    // Constructor replays on the final positions.
    const fmm::FmmSession& sess = engine.session();
    const auto& pos = engine.particles().pos;
    std::optional<fmm::Octree> tree;
    m.set("fmm.octree.build_ms", "ms", replay_ms("Octree::Octree", 3, [&] {
            tree.emplace(pos, sess.config().tree);
          }));
    m.set("fmm.plan.build_ms", "ms", replay_ms("FmmPlan::FmmPlan", 1, [&] {
            (void)fmm::FmmPlan(std::make_shared<const fmm::LaplaceKernel>(),
                               tree->domain().half, tree->max_depth(),
                               sess.config().fmm);
          }));
    m.set("fmm.evaluator.construct_ms", "ms",
          replay_ms("FmmEvaluator::FmmEvaluator", 3, [&] {
            (void)fmm::FmmEvaluator(sess.plan(),
                                    fmm::Octree(pos, sess.config().tree));
          }) - m.get("fmm.octree.build_ms"));
    fmm::FmmEvaluator ev(sess.plan(), fmm::Octree(pos, sess.config().tree));
    m.set("util.taskgraph.parallel_eff", "ratio",
          parallel_efficiency(ev, engine.particles().charge));
    replay_model_fit(&m);
    const double retunes = m.get("core.schedule_reuse.retunes");
    if (m.get("core.refresh.refits") == 0 || retunes == 0)
      pass.notes.push_back("dynamics_refresh: expected both model refits and "
                           "work-drift retunes in the timed phase");
  }

  // Correctness: sampled steps against the direct sum.
  const util::RngStream check_stream =
      util::RngStream(opt.seed).fork("check").fork(ts ? "traced" : "plain");
  const fmm::LaplaceKernel kernel;
  for (const DynSample& s : samples) {
    ++pass.checks;
    const double err = direct_error(kernel, s.pos, engine.particles().charge,
                                    s.phi, check_stream.fork(s.step));
    if (!(err < direct_tolerance(kDynP))) {
      ++pass.failed;
      pass.check_failures.push_back("step " + std::to_string(s.step) +
                                    ": rel. error " + std::to_string(err) +
                                    " vs direct sum");
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

Pass run_pass(const Options& opt, double seconds_scale, int setups,
              Clock::time_point t0, trace::TraceSession* ts) {
  if (opt.workload == "dynamics_refresh")
    return dyn_pass(make_dyn_inputs(opt), opt, opt.seconds * seconds_scale,
                    setups, t0, ts);
  const bool churn = opt.workload == "serve_churn";
  return serve_pass(make_serve_inputs(churn, opt), opt, seconds_scale, setups,
                    t0, ts);
}

void write_report(const Options& opt, const Pass& pass, const MetricSet& out,
                  const trace::TraceSession* ts) {
  for (const std::string& n : pass.notes)
    std::fprintf(stderr, "perfbench: %s\n", n.c_str());
  for (const std::string& f : pass.check_failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  if (opt.report_dir.empty()) return;
  std::filesystem::create_directories(opt.report_dir);
  const std::string stem = opt.report_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  std::ofstream os(stem + ".report.json");
  os << "{\n  \"workload\": \"" << opt.workload << "\",\n  \"seed\": "
     << opt.seed << ",\n  \"seconds\": " << opt.seconds
     << ",\n  \"latency_samples\": " << pass.latency_ms.size()
     << ",\n  \"latency_ms_p90_p99_max\": [" << quantile(pass.latency_ms, 0.9)
     << ", " << quantile(pass.latency_ms, 0.99) << ", "
     << quantile(pass.latency_ms, 1.0) << "]"
     << ",\n  \"setup_each_s\": [";
  for (std::size_t i = 0; i < pass.setup_each_s.size(); ++i)
    os << (i ? ", " : "") << pass.setup_each_s[i];
  os << "],\n  \"window_throughput_per_s\": [";
  const std::vector<double> per_window = window_throughputs(pass);
  for (std::size_t i = 0; i < per_window.size(); ++i)
    os << (i ? ", " : "") << per_window[i];
  os << "],\n  \"correctness_checks\": " << pass.checks << ",\n  \"notes\": [";
  for (std::size_t i = 0; i < pass.notes.size(); ++i)
    os << (i ? ", " : "") << '"' << pass.notes[i] << '"';
  os << "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < out.list().size(); ++i) {
    const Metric& m = out.list()[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    os << (i ? "," : "") << "\n    \"" << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "\n  }";
  if (ts) {
    // Self time per span name over the traced pass (computed flops and
    // bytes are in the fmm.phase.* metrics above).
    const auto agg = aggregate_spans(ts->spans(), 0, ts->now_us());
    os << ",\n  \"spans\": {";
    bool first = true;
    for (const auto& [key, a] : agg) {
      os << (first ? "" : ",") << "\n    \"" << key
         << "\": {\"count\": " << a.count
         << ", \"total_ms\": " << a.total_us / 1e3
         << ", \"self_ms\": " << a.self_us / 1e3 << "}";
      first = false;
    }
    os << "\n  }";
    trace::write_chrome_trace(*ts, stem + ".trace.json");
  }
  os << "\n}\n";
}

void print_result(const Pass& pass, const MetricSet& out) {
  const bool correct = pass.check_failures.empty() && pass.checks > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(pass.attempted),
              static_cast<unsigned long long>(pass.failed));
  for (std::size_t i = 0; i < out.list().size(); ++i) {
    const Metric& m = out.list()[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + a);
      return argv[++i];
    };
    if (a == "--workload") opt->workload = value();
    else if (a == "--seed") opt->seed = std::stoull(value());
    else if (a == "--seconds") opt->seconds = std::stod(value());
    else if (a == "--trace") opt->trace = value() != "0";
    else if (a == "--report-dir") opt->report_dir = value();
    else if (a == "--tiny") opt->tiny = true;
    else throw std::invalid_argument("unknown argument: " + a);
  }
  return (opt->workload == "serve_steady" || opt->workload == "serve_churn" ||
          opt->workload == "dynamics_refresh") &&
         opt->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, &opt)) {
      std::fprintf(stderr,
                   "usage: eroof_perfbench --workload serve_steady|"
                   "serve_churn|dynamics_refresh --seed N --seconds S "
                   "--trace 0|1 [--tiny] [--report-dir DIR]\n");
      return 2;
    }
    MetricSet out;
    if (!opt.trace) {
      const Pass pass = run_pass(opt, 1.0, 5, g_process_start, nullptr);
      end_to_end(pass, &out);
      write_report(opt, pass, out, nullptr);
      print_result(pass, out);
      return pass.check_failures.empty() && pass.checks > 0 ? 0 : 1;
    }
    // Traced run: an untraced and a traced pass of half the length each.
    // The untraced pass reports the median of three set-ups, as in an
    // untraced run; the traced pass sets up once in the now warm process.
    Pass plain = run_pass(opt, 0.5, 3, Clock::now(), nullptr);
    MetricSet plain_e2e;
    end_to_end(plain, &plain_e2e);
    trace::TraceSession session;
    trace::install(&session);
    Pass traced = run_pass(opt, 0.5, 1, Clock::now(), &session);
    trace::install(nullptr);
    MetricSet traced_e2e;
    end_to_end(traced, &traced_e2e);
    declare_layer_metrics(&out);
    for (const Metric& m : traced.layer.list())
      out.set(m.name, m.unit, m.value);
    for (const Metric& m : plain_e2e.list())
      out.set("trace.overhead." + m.name + "_pct", "%",
              100.0 * ratio(traced_e2e.get(m.name) - m.value, m.value));
    traced.check_failures.insert(traced.check_failures.end(),
                                 plain.check_failures.begin(),
                                 plain.check_failures.end());
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.checks += plain.checks;
    write_report(opt, traced, out, &session);
    print_result(traced, out);
    return traced.check_failures.empty() && traced.checks > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eroof_perfbench: %s\n", e.what());
    return 1;
  }
}
