// Performance of the host FMM: setup, evaluation across N / Q / p, and
// the O(N) vs O(N^2) crossover against the direct sum.
//
// Two modes:
//   * default: the google-benchmark suite below.
//   * --bench-json[=path]: a benchmark-trajectory harness that times
//     repeated evaluate() calls (with a tracing session capturing per-phase
//     span times), reduces them to median/p10/p90, and writes one
//     machine-readable JSON file (default BENCH_fmm.json). The same file
//     carries the two cold steps a plan pays before its first evaluate --
//     the operator build (`plan_build`) and the modelled GPU profile
//     (`gpu_profile`) -- per thread count, and the V phase's two largest
//     buffers in bytes (`m2l_bank_bytes`, `spectra_bytes`), which are
//     deterministic. CI runs this on every build so
//     regressions show up as a data point, not an anecdote.
#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "fmm/direct.hpp"
#include "fmm/evaluator.hpp"
#include "fmm/gpu_profile.hpp"
#include "fmm/plan.hpp"
#include "fmm/pointgen.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;
using bench::flag_value;
using bench::Summary;
using bench::summarize;
using bench::write_summary;

void BM_FmmEvaluate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto q = static_cast<std::uint32_t>(state.range(1));
  util::Rng rng(1);
  const auto pts = fmm::uniform_cube(n, rng);
  const auto dens = fmm::random_densities(n, rng);
  static const fmm::LaplaceKernel kernel;
  fmm::FmmEvaluator ev(kernel, pts, {.max_points_per_box = q},
                       fmm::FmmConfig{.p = 4});
  for (auto _ : state) {
    auto phi = ev.evaluate(dens);
    benchmark::DoNotOptimize(phi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FmmEvaluate)
    ->Args({4096, 64})
    ->Args({16384, 64})
    ->Args({16384, 256})
    ->Unit(benchmark::kMillisecond);

void BM_DirectSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const auto pts = fmm::uniform_cube(n, rng);
  const auto dens = fmm::random_densities(n, rng);
  static const fmm::LaplaceKernel kernel;
  for (auto _ : state) {
    auto phi = fmm::direct_sum(kernel, pts, pts, dens);
    benchmark::DoNotOptimize(phi.data());
  }
}
BENCHMARK(BM_DirectSum)->Arg(4096)->Arg(16384)->Unit(benchmark::kMillisecond);

void BM_FmmSetup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  const auto pts = fmm::uniform_cube(n, rng);
  static const fmm::LaplaceKernel kernel;
  for (auto _ : state) {
    fmm::FmmEvaluator ev(kernel, pts, {.max_points_per_box = 64},
                         fmm::FmmConfig{.p = 4});
    benchmark::DoNotOptimize(&ev);
  }
}
BENCHMARK(BM_FmmSetup)->Arg(16384)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --bench-json trajectory harness
// ---------------------------------------------------------------------------

constexpr const char* kPhases[] = {"UP", "V", "X", "DOWN", "U", "W"};

/// One measured configuration: repeated traced evaluations at a fixed
/// thread count.
struct Run {
  int threads = 0;
  Summary wall;
  std::vector<std::pair<std::string, Summary>> phases;
  Summary plan_build;
  Summary gpu_profile;
};

/// Wall time of `reps` calls of `fn`, in ms.
template <typename Fn>
std::vector<double> time_reps(int reps, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return ms;
}

Run measure(fmm::FmmEvaluator& ev, std::span<const double> dens, int threads,
            int reps) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
  std::vector<double> wall_ms;
  std::vector<std::vector<double>> phase_ms(std::size(kPhases));
  (void)ev.evaluate(dens);  // warm-up: sizes workspaces, faults arenas in
  for (int r = 0; r < reps; ++r) {
    trace::TraceSession session;
    {
      trace::SessionGuard guard(session);
      auto phi = ev.evaluate(dens);
      benchmark::DoNotOptimize(phi.data());
    }
    for (const auto& span : session.spans()) {
      const double ms = static_cast<double>(span.dur_us) / 1000.0;
      if (span.category == "fmm" && span.name == "evaluate")
        wall_ms.push_back(ms);
      if (span.category != "fmm.phase") continue;
      for (std::size_t p = 0; p < std::size(kPhases); ++p)
        if (span.name == kPhases[p]) phase_ms[p].push_back(ms);
    }
  }
  Run run;
  run.threads = threads;
  run.wall = summarize(wall_ms);
  for (std::size_t p = 0; p < std::size(kPhases); ++p)
    run.phases.emplace_back(kPhases[p], summarize(phase_ms[p]));
  run.plan_build = summarize(time_reps(reps, [&] {
    auto plan = fmm::FmmPlan::for_tree(fmm::FmmPlan::borrow_kernel(ev.kernel()),
                                       ev.tree(), ev.operators().config());
    benchmark::DoNotOptimize(plan.get());
  }));
  run.gpu_profile = summarize(time_reps(reps, [&] {
    auto prof = fmm::profile_gpu_execution(ev);
    benchmark::DoNotOptimize(prof.phases.data());
  }));
  return run;
}

/// Bytes of the distinct M2L banks the tree's levels use (homogeneous
/// kernels share one bank across levels).
std::size_t m2l_bank_bytes(const fmm::Operators& ops, const fmm::Octree& tree) {
  std::size_t bytes = 0;
  const fmm::M2lBank* prev = nullptr;
  for (int l = 2; l <= tree.max_depth(); ++l) {
    const fmm::M2lBank* bank = ops.level(l).m2l.get();
    if (bank && bank != prev)
      bytes += (bank->re.size() + bank->im.size()) * sizeof(double);
    prev = bank;
  }
  return bytes;
}

int run_bench_json(const std::string& path, std::size_t n, std::uint32_t q,
                   int p, int reps) {
  util::Rng rng(1);
  const auto pts = fmm::uniform_cube(n, rng);
  const auto dens = fmm::random_densities(n, rng);
  const fmm::LaplaceKernel kernel;
  fmm::FmmEvaluator ev(kernel, pts, {.max_points_per_box = q},
                       fmm::FmmConfig{.p = p});

  std::vector<int> thread_counts{1};
#ifdef _OPENMP
  if (omp_get_max_threads() > 1) thread_counts.push_back(omp_get_max_threads());
#endif

  std::vector<Run> runs;
  for (const int t : thread_counts) {
    std::fprintf(stderr, "bench-json: n=%zu q=%u p=%d threads=%d reps=%d\n",
                 n, q, p, t, reps);
    runs.push_back(measure(ev, dens, t, reps));
  }

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench-json: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"fmm_evaluate\",\n";
  out << "  \"kernel\": \"" << kernel.name() << "\",\n";
  out << "  \"n\": " << n << ",\n";
  out << "  \"q\": " << q << ",\n";
  out << "  \"p\": " << p << ",\n";
  out << "  \"tree_depth\": " << ev.tree().max_depth() << ",\n";
  out << "  \"m2l_bank_bytes\": " << m2l_bank_bytes(ev.operators(), ev.tree())
      << ",\n";
  out << "  \"spectra_bytes\": " << ev.spectra_bytes() << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    out << "    {\n      \"threads\": " << run.threads
        << ",\n      \"evaluate\": ";
    write_summary(out, run.wall);
    out << ",\n      \"plan_build\": ";
    write_summary(out, run.plan_build);
    out << ",\n      \"gpu_profile\": ";
    write_summary(out, run.gpu_profile);
    out << ",\n      \"phases\": {\n";
    for (std::size_t ph = 0; ph < run.phases.size(); ++ph) {
      out << "        \"" << run.phases[ph].first << "\": ";
      write_summary(out, run.phases[ph].second);
      out << (ph + 1 < run.phases.size() ? ",\n" : "\n");
    }
    out << "      }\n    }" << (r + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "bench-json: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool json_mode = false;
  std::size_t n = 16384;
  std::uint32_t q = 64;
  int p = 4;
  int reps = 9;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (flag_value(argv[i], "--bench-json", &v)) {
      json_mode = true;
      json_path = v.empty() ? "BENCH_fmm.json" : v;
    } else if (flag_value(argv[i], "--bench-n", &v)) {
      n = static_cast<std::size_t>(std::stoull(v));
    } else if (flag_value(argv[i], "--bench-q", &v)) {
      q = static_cast<std::uint32_t>(std::stoul(v));
    } else if (flag_value(argv[i], "--bench-p", &v)) {
      p = std::stoi(v);
    } else if (flag_value(argv[i], "--bench-reps", &v)) {
      reps = std::stoi(v);
    }
    v.clear();
  }
  if (json_mode) return run_bench_json(json_path, n, q, p, reps);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
