// Multi-tenant FMM serving (DESIGN.md §12).
//
// FmmServer accepts a stream of independent FMM requests through a bounded
// MPMC queue with admission control and answers each with the solved
// potentials plus the per-phase DVFS schedule the chain DP picked for the
// request's plan. The headline mechanism is the plan cache: requests that
// resolve to the same (kernel, accuracy, depth) key share one FmmPlan --
// per-level operators and the M2L bank -- so a cache hit skips operator
// construction. The
// schedule-DP result is memoized separately per (plan key, point count):
// the first request with that shape profiles its phase workloads and runs
// the DP once; every repeat of the shape skips the search.
//
// Serving contract: each response's potentials are bitwise identical to a
// fresh single-threaded FmmEvaluator run on the same request, independent
// of worker count, arrival order, and cache hits vs misses. The pieces that
// guarantee it: the fixed protocol domain (tree geometry is a function of
// the request, not of co-tenants), per-worker OpenMP serialization (each
// solve runs single-threaded; parallelism comes from concurrent requests),
// and plans whose per-level operators are built/rescaled independently of
// the request that triggered the build.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/fit.hpp"
#include "core/schedule.hpp"
#include "fmm/evaluator.hpp"
#include "hw/dvfs.hpp"
#include "hw/soc.hpp"
#include "serve/plan_cache.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace eroof::serve {

/// Everything the schedule search needs, fitted once and shared read-only by
/// every worker: the SoC model, the energy model fitted from the paper
/// campaign's training half, the DVFS setting grid, and the transition-cost
/// model. Optional -- a server without one skips schedules (pure solving).
struct ScheduleContext {
  hw::Soc soc;
  model::EnergyModel model;
  std::vector<hw::DvfsSetting> grid;
  hw::DvfsTransitionModel transitions;

  /// The default context: Tegra K1 SoC, model fitted from the seeded paper
  /// campaign, full clock grid, realistic 100us/50uJ transitions.
  static std::shared_ptr<const ScheduleContext> tegra_default(
      std::uint64_t campaign_seed = 42);
};

struct ServerConfig {
  int workers = 1;
  std::size_t queue_capacity = 64;  ///< admission-control bound
  std::size_t plan_cache_capacity = 16;  ///< 0 = no caching (cold mode)
  std::size_t plan_cache_shards = 4;
  std::shared_ptr<const ScheduleContext> schedule_ctx;  ///< may be null
};

class FmmServer {
 public:
  explicit FmmServer(ServerConfig cfg);
  ~FmmServer();
  FmmServer(const FmmServer&) = delete;
  FmmServer& operator=(const FmmServer&) = delete;

  /// Submits one request. Never blocks: malformed requests (see
  /// validate_request) resolve immediately to kInvalid, and if the queue is
  /// full (or the server is shut down) the future resolves immediately to a
  /// kShed response -- admission control sheds load instead of queueing it.
  /// Workers never see a request that fails validation, and a solve that
  /// still throws server-side answers with kError instead of taking the
  /// process down.
  std::future<FmmResponse> submit(FmmRequest req);

  /// Serves one request synchronously on the calling thread, against the
  /// same plan cache. The benchmark's single-threaded reference path.
  FmmResponse serve_now(FmmRequest req);

  /// Stops admission, drains queued requests, joins the workers. Idempotent;
  /// the destructor calls it.
  void shutdown();

  struct Stats {
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
    std::uint64_t invalid = 0;  ///< rejected by validate_request at admission
    std::uint64_t errors = 0;   ///< solves that failed server-side (kError)
    PlanCache::Stats cache;
  };
  Stats stats() const;
  std::size_t queue_depth() const { return queue_.depth(); }
  const ServerConfig& config() const { return cfg_; }

 private:
  struct Job {
    FmmRequest req;
    std::promise<FmmResponse> promise;
    std::int64_t enqueued_us = 0;
  };

  void worker_main();
  /// serve_one with the worker-side safety net: any exception becomes a
  /// kError response instead of escaping the thread (which would
  /// std::terminate the whole server) and abandoning the job's promise.
  FmmResponse serve_guarded(FmmRequest req);
  FmmResponse serve_one(FmmRequest req);
  FmmResponse invalid_response(std::uint64_t id, std::string reason);
  std::shared_ptr<const ServePlan> build_plan(const std::string& key,
                                              const FmmRequest& req,
                                              const fmm::Octree& tree);

  ServerConfig cfg_;
  BoundedQueue<Job> queue_;
  PlanCache cache_;
  model::ScheduleMemo schedule_memo_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<bool> down_{false};
};

}  // namespace eroof::serve
