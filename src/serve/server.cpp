#include "serve/server.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "fmm/gpu_profile.hpp"
#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::serve {
namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::shared_ptr<const fmm::FmmPlan> build_plan(const FmmRequest& req,
                                               const fmm::Octree& tree) {
  trace::ScopedSpan span("serve.plan_build", "serve");
  fmm::FmmConfig fcfg;
  fcfg.p = req.p;
  return std::make_shared<const fmm::FmmPlan>(
      make_kernel(req.kernel), tree.domain().half, tree.max_depth(), fcfg);
}

/// One solve's share of a server's OpenMP thread budget: whatever the other
/// in-flight solves leave free, and never fewer than one thread. Taking it
/// is one compare-exchange loop on the shared count, with no mutex;
/// destruction gives it back, so no path out of a solve leaks threads.
class ThreadGrant {
 public:
  ThreadGrant(std::atomic<int>& held, std::atomic<int>& peak, int budget)
      : held_(held) {
    int before = held_.load();
    do {
      threads_ = std::max(1, budget - before);
    } while (!held_.compare_exchange_weak(before, before + threads_));
    const int now = before + threads_;
    int seen = peak.load();
    while (seen < now && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  ~ThreadGrant() { held_.fetch_sub(threads_); }
  ThreadGrant(const ThreadGrant&) = delete;
  ThreadGrant& operator=(const ThreadGrant&) = delete;

  int threads() const { return threads_; }

 private:
  std::atomic<int>& held_;
  int threads_ = 1;
};

}  // namespace

std::string validate_request(const FmmRequest& req) {
  if (req.points.empty()) return "request has no points";
  if (req.densities.size() != req.points.size())
    return "densities/points size mismatch (" +
           std::to_string(req.densities.size()) + " vs " +
           std::to_string(req.points.size()) + ")";
  if (req.p < fmm::FmmConfig::kMinP || req.p > fmm::FmmConfig::kMaxP)
    return "surface order p=" + std::to_string(req.p) + " outside [" +
           std::to_string(fmm::FmmConfig::kMinP) + ", " +
           std::to_string(fmm::FmmConfig::kMaxP) + "]";
  if (req.max_points_per_box == 0) return "max_points_per_box must be >= 1";
  const double param = req.kernel.param;
  if (req.kernel.kind == KernelKind::kYukawa &&
      !(std::isfinite(param) && param >= 0))
    return "Yukawa lambda must be finite and >= 0";
  if (req.kernel.kind == KernelKind::kGaussian &&
      !(std::isfinite(param) && param > 0))
    return "Gaussian sigma must be finite and > 0";
  for (std::size_t i = 0; i < req.points.size(); ++i)
    if (!kServeDomain.contains(req.points[i]))
      return "point " + std::to_string(i) + " outside the protocol domain";
  for (std::size_t i = 0; i < req.densities.size(); ++i)
    if (!std::isfinite(req.densities[i]))
      return "density " + std::to_string(i) + " is not finite";
  return {};
}

FmmServer::FmmServer(ServerConfig cfg)
    : cfg_(cfg),
      queue_(cfg.queue_capacity),
      cache_({.capacity = cfg.plan_cache_capacity,
              .counter_prefix = "serve.plan_cache"}),
      thread_budget_(std::max(1, omp_get_max_threads())) {
  EROOF_REQUIRE_MSG(cfg_.workers >= 1, "FmmServer needs >= 1 worker");
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

FmmServer::~FmmServer() { shutdown(); }

std::future<FmmResponse> FmmServer::submit(FmmRequest req) {
  Job job;
  job.req = std::move(req);
  job.enqueued_us = now_us();
  std::future<FmmResponse> future = job.promise.get_future();
  const std::uint64_t id = job.req.id;
  // Validate at admission: workers must never see a malformed request -- a
  // contract failure thrown inside a worker thread would std::terminate the
  // whole server and abandon the job's promise.
  if (std::string reason = validate_request(job.req); !reason.empty()) {
    job.promise.set_value(invalid_response(id, std::move(reason)));
    return future;
  }
  if (!queue_.try_push(std::move(job))) {
    // Admission control: answer immediately instead of queueing unbounded
    // work. `job` is intact on rejection, so its promise still answers.
    FmmResponse resp;
    resp.id = id;
    resp.status = ServeStatus::kShed;
    // Monotonic tally, read only by stats(); no ordering needed.
    shed_.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
    trace::counter_add("serve.shed", 1.0);
    job.promise.set_value(std::move(resp));
  }
  return future;
}

FmmResponse FmmServer::serve_now(FmmRequest req) {
  if (std::string reason = validate_request(req); !reason.empty())
    return invalid_response(req.id, std::move(reason));
  return serve_guarded(std::move(req));
}

FmmResponse FmmServer::invalid_response(std::uint64_t id, std::string reason) {
  FmmResponse resp;
  resp.id = id;
  resp.status = ServeStatus::kInvalid;
  resp.error = std::move(reason);
  // Monotonic tally, read only by stats(); no ordering needed.
  invalid_.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  trace::counter_add("serve.invalid", 1.0);
  return resp;
}

void FmmServer::shutdown() {
  if (down_.exchange(true)) return;
  queue_.close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

FmmServer::Stats FmmServer::stats() const {
  // Counter snapshot: each tally is independently monotonic and stats()
  // makes no cross-counter consistency promise, so relaxed loads suffice.
  return {served_.load(std::memory_order_relaxed),    // eroof-lint: allow(relaxed-atomic)
          shed_.load(std::memory_order_relaxed),      // eroof-lint: allow(relaxed-atomic)
          invalid_.load(std::memory_order_relaxed),   // eroof-lint: allow(relaxed-atomic)
          errors_.load(std::memory_order_relaxed),    // eroof-lint: allow(relaxed-atomic)
          cache_.stats(),
          peak_threads_.load()};
}

void FmmServer::worker_main() {
  // Each claimed job takes the share of the thread budget that the other
  // in-flight solves leave free, at least one thread: a lone request solves
  // on every core, and concurrent ones split them, overshooting the budget
  // by at most workers - 1 threads. The num-threads ICV is per-thread, so
  // this sizes only *this* worker's OpenMP teams, and the evaluator's bits
  // do not depend on the team size. The grant goes back before the promise
  // is set, so a closed-loop client's next request can take it.
  // eroof: hot-begin -- steady-state serving loop: no allocation beyond the
  // per-request evaluator state, no locks beyond the queue handoff.
  while (auto job = queue_.pop()) {
    const std::int64_t claimed_us = now_us();
    FmmResponse resp = [&] {
      const ThreadGrant grant(threads_held_, peak_threads_, thread_budget_);
      omp_set_num_threads(grant.threads());
      // eroof: cold (per-request solve: builds the request's own evaluator
      // and response, which allocate by design; the evaluator's
      // steady-state zero-alloc contract is enforced by its own hot regions)
      return serve_guarded(std::move(job->req));
    }();
    resp.queue_us = static_cast<double>(claimed_us - job->enqueued_us);
    job->promise.set_value(std::move(resp));
  }
  // eroof: hot-end
}

FmmResponse FmmServer::serve_guarded(FmmRequest req) {
  const std::uint64_t id = req.id;
  try {
    return serve_one(std::move(req));
  } catch (const std::exception& e) {
    FmmResponse resp;
    resp.id = id;
    resp.status = ServeStatus::kError;
    resp.error = e.what();
    // Monotonic tally, read only by stats(); no ordering needed.
    errors_.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
    trace::counter_add("serve.error", 1.0);
    return resp;
  } catch (...) {
    FmmResponse resp;
    resp.id = id;
    resp.status = ServeStatus::kError;
    resp.error = "unknown exception during solve";
    // Monotonic tally, read only by stats(); no ordering needed.
    errors_.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
    trace::counter_add("serve.error", 1.0);
    return resp;
  }
}

FmmResponse FmmServer::serve_one(FmmRequest req) {
  const std::int64_t start_us = now_us();
  trace::ScopedSpan span("serve.request", "serve");

  FmmResponse resp;
  resp.id = req.id;
  resp.threads = omp_get_max_threads();
  EROOF_REQUIRE_MSG(!req.points.empty(), "request has no points");
  EROOF_REQUIRE_MSG(req.densities.size() == req.points.size(),
                    "densities/points size mismatch");

  // The tree is a protocol function of the request: fixed domain, uniform
  // depth from (N, Q). Identical across workers and arrival orders.
  fmm::Octree::Params tp;
  tp.max_points_per_box = req.max_points_per_box;
  tp.uniform_depth =
      fmm::Octree::uniform_depth_for(req.points.size(), req.max_points_per_box);
  tp.domain = kServeDomain;
  fmm::Octree tree(req.points, tp);

  const std::string key =
      plan_cache_key(req.kernel, req.p, req.max_points_per_box,
                     tree.max_depth(), tree.domain());
  const PlanCache::Result cached =
      cache_.get_or_build(key, [&] { return build_plan(req, tree); });

  fmm::FmmEvaluator ev(cached.value, std::move(tree));

  if (cfg_.schedule_ctx) {
    const model::TuneContext& ctx = *cfg_.schedule_ctx;
    // Cached per (plan key, point count), not per plan key alone: the
    // profiled phase workloads depend on the request's size, so keying by
    // plan key only would make the reported schedule depend on which
    // request happened to build the plan (arrival order / cache state).
    // With N in the key, every repeat of a request shape reads the same
    // entry, and a repeat that races the first build waits for it. The
    // residual representative-ness (same-N requests with different point
    // *distributions* share the first arrival's schedule) is documented on
    // ServeSchedule; only potentials are bitwise.
    const std::string skey =
        key + "|n=" + std::to_string(req.points.size());
    const auto sched = schedules_.get_or_build(skey, [&] {
      const auto phases = fmm::profile_gpu_execution(ev).workloads();
      const auto pred =
          model::predict_phase_grid(ctx.model, ctx.soc, phases, ctx.grid);
      return std::make_shared<const model::PhaseSchedule>(
          model::schedule_phases(pred, ctx.transitions));
    }).value;
    resp.schedule.setting_labels.reserve(sched->pick.size());
    for (const std::size_t pick : sched->pick)
      resp.schedule.setting_labels.push_back(ctx.grid[pick].label());
    resp.schedule.pred_time_s = sched->pred_time_s;
    resp.schedule.pred_energy_j = sched->pred_energy_j;
    resp.schedule.switches = sched->switches;
  }

  resp.potentials = ev.evaluate(req.densities);

  resp.plan_key = key;
  resp.cache_hit = cached.hit;
  resp.service_us = static_cast<double>(now_us() - start_us);
  // Monotonic tally, read only by stats(); no ordering needed.
  served_.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  trace::counter_add("serve.served", 1.0);
  return resp;
}

}  // namespace eroof::serve
