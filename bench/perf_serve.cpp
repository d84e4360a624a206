// Throughput/latency of the FMM serving subsystem (DESIGN.md §12).
//
// Drives a deterministic mixed workload (three request sizes x three point
// distributions, homogeneous Laplace kernel) through FmmServer and reports
// req/s, p50/p99 latency and the plan-cache hit rate at 1/2/4/max worker
// threads, in two modes:
//
//   * warm: plan cache enabled and pre-warmed -- requests share plans, so
//     the per-request path is tree + lists + solve only.
//   * cold: plan cache disabled (capacity 0) -- every request pays operator
//     construction and the schedule search.
//
// The headline acceptance number is warm/cold throughput at equal worker
// count (>= 2x) plus req/s scaling from 1 to 4 workers.
//
//   perf_serve [--bench-json[=path]] [--bench-requests=N]
//
// --bench-json writes one machine-readable JSON file (default
// BENCH_serve.json); CI uploads it as an artifact.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "fmm/octree.hpp"
#include "serve/plan_cache.hpp"
#include "bench/common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace {

using namespace eroof;
using bench::flag_value;
using bench::percentile;
using Clock = std::chrono::steady_clock;

struct Run {
  std::string mode;
  int workers = 0;
  double req_per_s = 0;
  double p50_ms = 0, p99_ms = 0;
  double cache_hit_rate = 0;
  std::uint64_t shed = 0;
};

Run drive(const std::vector<serve::FmmRequest>& requests, bool warm,
          int workers,
          std::shared_ptr<const serve::ScheduleContext> schedule_ctx) {
  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = requests.size();  // no shedding in the benchmark
  cfg.plan_cache_capacity = warm ? 16 : 0;
  cfg.schedule_ctx = std::move(schedule_ctx);
  serve::FmmServer server(cfg);

  if (warm) {
    // One serve per distinct plan key puts every plan in the cache before
    // the clock starts.
    std::set<std::string> seen;
    for (const serve::FmmRequest& req : requests) {
      const std::string key = serve::plan_cache_key(
          req.kernel, req.p, req.max_points_per_box,
          fmm::Octree::uniform_depth_for(req.points.size(),
                                         req.max_points_per_box),
          serve::kServeDomain);
      if (seen.insert(key).second) (void)server.serve_now(req);
    }
  }
  const serve::FmmServer::Stats before = server.stats();

  const Clock::time_point t0 = Clock::now();
  std::vector<std::future<serve::FmmResponse>> futures;
  futures.reserve(requests.size());
  for (const serve::FmmRequest& req : requests)
    futures.push_back(server.submit(req));
  std::vector<double> latency_ms;
  latency_ms.reserve(futures.size());
  for (auto& f : futures) {
    const serve::FmmResponse resp = f.get();
    if (resp.status == serve::ServeStatus::kOk)
      latency_ms.push_back((resp.queue_us + resp.service_us) / 1000.0);
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const serve::FmmServer::Stats after = server.stats();
  server.shutdown();

  Run run;
  run.mode = warm ? "warm" : "cold";
  run.workers = workers;
  run.req_per_s = static_cast<double>(latency_ms.size()) / wall_s;
  run.p50_ms = percentile(latency_ms, 0.5);
  run.p99_ms = percentile(latency_ms, 0.99);
  const std::uint64_t served = after.served - before.served;
  run.cache_hit_rate =
      served == 0 ? 0
                  : static_cast<double>(after.cache.hits - before.cache.hits) /
                        static_cast<double>(served);
  run.shed = after.shed - before.shed;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool json_mode = false;
  std::size_t n_requests = 64;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (flag_value(argv[i], "--bench-json", &v)) {
      json_mode = true;
      json_path = v.empty() ? "BENCH_serve.json" : v;
    } else if (flag_value(argv[i], "--bench-requests", &v)) {
      n_requests = static_cast<std::size_t>(std::stoull(v));
    }
    v.clear();
  }

  serve::WorkloadConfig wl;
  wl.sizes = {1024, 4096, 8192};
  std::vector<serve::FmmRequest> requests;
  requests.reserve(n_requests);
  for (std::uint64_t i = 0; i < n_requests; ++i)
    requests.push_back(serve::make_request(wl, i));

  std::vector<int> worker_counts{1, 2, 4};
#ifdef _OPENMP
  const int max_workers = omp_get_max_threads();
#else
  const int max_workers = 4;
#endif
  if (max_workers > 4) worker_counts.push_back(max_workers);

  // Fitted once, shared read-only by every run (and every server worker).
  const auto schedule_ctx = serve::ScheduleContext::tegra_default();

  std::vector<Run> runs;
  for (const bool warm : {false, true}) {
    for (const int w : worker_counts) {
      std::fprintf(stderr, "perf_serve: mode=%s workers=%d requests=%zu\n",
                   warm ? "warm" : "cold", w, n_requests);
      runs.push_back(drive(requests, warm, w, schedule_ctx));
      const Run& r = runs.back();
      std::fprintf(stderr,
                   "  -> %.2f req/s, p50 %.1f ms, p99 %.1f ms, hit-rate "
                   "%.2f, shed %llu\n",
                   r.req_per_s, r.p50_ms, r.p99_ms, r.cache_hit_rate,
                   static_cast<unsigned long long>(r.shed));
    }
  }

  if (!json_mode) return 0;
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "bench-json: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"serve\",\n";
  out << "  \"cores\": " << max_workers << ",\n";
  out << "  \"requests\": " << n_requests << ",\n";
  out << "  \"sizes\": [1024, 4096, 8192],\n";
  out << "  \"kernel\": \"laplace\",\n  \"p\": " << wl.p
      << ",\n  \"q\": " << wl.max_points_per_box << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"workers\": " << r.workers
        << ", \"req_per_s\": " << r.req_per_s << ", \"p50_ms\": " << r.p50_ms
        << ", \"p99_ms\": " << r.p99_ms
        << ", \"cache_hit_rate\": " << r.cache_hit_rate
        << ", \"shed\": " << r.shed << "}"
        << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "bench-json: wrote %s\n", json_path.c_str());
  return 0;
}
