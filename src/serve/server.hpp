// Multi-tenant FMM serving (DESIGN.md §12).
//
// FmmServer accepts a stream of independent FMM requests through a bounded
// MPMC queue with admission control and answers each with the solved
// potentials plus the per-phase DVFS schedule the chain DP picked for the
// request's plan. The headline mechanism is the plan cache: requests that
// resolve to the same (kernel, accuracy, depth) key share one FmmPlan --
// per-level operators and the M2L bank -- so a cache hit skips operator
// construction. The schedule-DP result sits in a second cache of the same
// kind, keyed per (plan key, point count): the first request with that
// shape profiles its phase workloads and runs the DP once, priced with the
// shared model::TuneContext the dynamics engine and the closed loop use
// too; every repeat of the shape waits for or reads that one result.
//
// Serving contract: each response's potentials are bitwise identical to a
// fresh single-threaded FmmEvaluator run on the same request, independent
// of worker count, thread grant, arrival order, and cache hits vs misses.
// The pieces that guarantee it: the fixed protocol domain (tree geometry is
// a function of the request, not of co-tenants), an evaluator and a GPU
// profile whose bits do not depend on the OpenMP team size, and plans whose
// per-level operators are built/rescaled independently of the request that
// triggered the build.
//
// Thread budget: the server reads omp_get_max_threads() of the thread that
// constructs it (so OMP_NUM_THREADS applies) and shares that many OpenMP
// threads among its workers. A worker that claims a job takes whatever the
// in-flight solves leave free, at least one thread, and gives it back when
// the solve ends: a lone request solves on every core, and concurrent ones
// split them, with at most workers - 1 threads over the budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/schedule.hpp"
#include "fmm/evaluator.hpp"
#include "serve/plan_cache.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace eroof::serve {

/// The shared tuning context (model::TuneContext): SoC, fitted energy
/// model, DVFS grid and transition costs, fitted once and read by every
/// worker. Optional -- a server without one skips schedules (pure solving).
/// The name is kept only because the frozen end-to-end benchmark spells it.
using ScheduleContext = model::TuneContext;

struct ServerConfig {
  int workers = 1;
  std::size_t queue_capacity = 64;  ///< admission-control bound
  std::size_t plan_cache_capacity = 16;  ///< 0 = no caching (cold mode)
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
  /// same caches, at the caller's OpenMP thread count; the thread budget
  /// does not apply. The benchmark pre-warms the caches through it.
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
    int peak_threads = 0;  ///< most threads held at once by worker solves
  };
  Stats stats() const;
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

  ServerConfig cfg_;
  BoundedQueue<Job> queue_;
  PlanCache cache_;
  /// Schedules per (plan key, point count). Never evicts: schedules are
  /// tiny, and re-running the search is not.
  LruCache<model::PhaseSchedule> schedules_{
      {.capacity = std::numeric_limits<std::size_t>::max(),
       .counter_prefix = "core.schedule_memo"}};
  const int thread_budget_;
  std::atomic<int> threads_held_{0};  ///< sum of the in-flight grants
  std::atomic<int> peak_threads_{0};
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<bool> down_{false};
};

}  // namespace eroof::serve
