// FmmServer end-to-end: the serving contract (every response bitwise
// identical to a fresh single-threaded FmmEvaluator run, independent of
// worker count, thread grant, arrival order, and cache hits vs misses), the
// workers' shared OpenMP thread budget, admission-control shedding,
// plan-cache accounting through the server, and the DVFS schedule attached
// to responses.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fmm/evaluator.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace eroof::serve {
namespace {

::testing::AssertionResult bitwise_equal(const std::vector<double>& got,
                                         const std::vector<double>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
  return ::testing::AssertionSuccess();
}

/// Small-but-multi-level workload: two sizes so two distinct plan keys
/// (uniform depths) occur, Q=8 to keep trees deep at small N.
WorkloadConfig small_workload() {
  WorkloadConfig cfg;
  cfg.sizes = {256, 1024};
  cfg.max_points_per_box = 8;
  return cfg;
}

/// The contract's reference: a fresh evaluator, built from scratch (its own
/// plan, no sharing), run single-threaded.
std::vector<double> reference_solve(const FmmRequest& req) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const auto kernel = make_kernel(req.kernel);
  fmm::Octree::Params tp;
  tp.max_points_per_box = req.max_points_per_box;
  tp.uniform_depth = fmm::Octree::uniform_depth_for(req.points.size(),
                                                    req.max_points_per_box);
  tp.domain = kServeDomain;
  fmm::FmmEvaluator ev(*kernel, req.points, tp, fmm::FmmConfig{.p = req.p});
  auto phi = ev.evaluate(req.densities);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  return phi;
}

/// Sets the calling thread's OpenMP thread count for one scope: the thread
/// budget of a server constructed inside it, and the team size of its
/// serve_now calls.
class ScopedOmpThreads {
 public:
  explicit ScopedOmpThreads(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~ScopedOmpThreads() { omp_set_num_threads(saved_); }
  ScopedOmpThreads(const ScopedOmpThreads&) = delete;
  ScopedOmpThreads& operator=(const ScopedOmpThreads&) = delete;

 private:
  int saved_;
};

/// A server whose workers share a budget of `budget` OpenMP threads.
std::unique_ptr<FmmServer> make_server(const ServerConfig& cfg, int budget) {
  const ScopedOmpThreads threads(budget);
  return std::make_unique<FmmServer>(cfg);
}

TEST(FmmServer, ResponsesBitwiseMatchFreshEvaluatorAcrossWorkerCounts) {
  const WorkloadConfig wl = small_workload();
  constexpr std::uint64_t kRequests = 8;
  std::vector<FmmRequest> requests;
  std::vector<std::vector<double>> want;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    requests.push_back(make_request(wl, i));
    want.push_back(reference_solve(requests.back()));
  }

  for (const int budget : {1, 3}) {
    for (const int workers : {1, 2, 4}) {
      for (const std::size_t capacity : {std::size_t{0}, std::size_t{16}}) {
        ServerConfig cfg;
        cfg.workers = workers;
        cfg.queue_capacity = kRequests;
        cfg.plan_cache_capacity = capacity;
        const auto server = make_server(cfg, budget);
        // Reversed submission order: arrival order must not matter.
        std::vector<std::future<FmmResponse>> futures(kRequests);
        for (std::size_t i = kRequests; i-- > 0;)
          futures[i] = server->submit(requests[i]);
        for (std::size_t i = 0; i < kRequests; ++i) {
          const FmmResponse resp = futures[i].get();
          ASSERT_EQ(resp.status, ServeStatus::kOk);
          EXPECT_EQ(resp.id, requests[i].id);
          EXPECT_GE(resp.threads, 1);
          EXPECT_LE(resp.threads, budget);
          EXPECT_TRUE(bitwise_equal(resp.potentials, want[i]))
              << "request " << i << " workers=" << workers
              << " cache_capacity=" << capacity << " budget=" << budget;
        }
        const auto stats = server->stats();
        EXPECT_EQ(stats.served, kRequests);
        EXPECT_EQ(stats.shed, 0u);
      }
    }
  }
}

TEST(FmmServer, LoneRequestTakesTheWholeThreadBudget) {
  const WorkloadConfig wl = small_workload();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  const auto server = make_server(cfg, 3);
  // Two lone requests in a row: the first one's grant has come back by the
  // time its response does.
  for (const std::uint64_t i : {0u, 1u}) {
    const FmmRequest req = make_request(wl, i);
    const FmmResponse resp = server->submit(req).get();
    ASSERT_EQ(resp.status, ServeStatus::kOk);
    EXPECT_EQ(resp.threads, 3);
    EXPECT_TRUE(bitwise_equal(resp.potentials, reference_solve(req)));
  }
  EXPECT_EQ(server->stats().peak_threads, 3);
}

TEST(FmmServer, ConcurrentGrantsStayWithinBudgetPlusWorkersMinusOne) {
  const WorkloadConfig wl = small_workload();
  constexpr int kBudget = 4;
  constexpr int kWorkers = 4;
  constexpr std::uint64_t kRequests = 24;
  ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = kRequests;
  const auto server = make_server(cfg, kBudget);
  std::vector<std::future<FmmResponse>> futures;
  for (std::uint64_t i = 0; i < kRequests; ++i)
    futures.push_back(server->submit(make_request(wl, i)));
  for (auto& f : futures) {
    const FmmResponse resp = f.get();
    ASSERT_EQ(resp.status, ServeStatus::kOk);
    EXPECT_GE(resp.threads, 1);
    EXPECT_LE(resp.threads, kBudget);
  }
  // Each grant is what the others leave free, or one thread when nothing
  // is: the in-flight sum tops out at the budget plus one per other worker.
  const auto stats = server->stats();
  EXPECT_GE(stats.peak_threads, kBudget);
  EXPECT_LE(stats.peak_threads, kBudget + kWorkers - 1);
  // Every grant came back: a lone request after the burst gets them all.
  const FmmResponse lone = server->submit(make_request(wl, 0)).get();
  ASSERT_EQ(lone.status, ServeStatus::kOk);
  EXPECT_EQ(lone.threads, kBudget);
}

TEST(FmmServer, BudgetedWorkerSchedulesMatchOneThreadServeNow) {
  // The schedule half of the contract: every serve_steady-style shape,
  // profiled and scheduled on a worker's multi-threaded team, picks the
  // same settings with the same predictions as at one thread.
  const auto ctx = model::TuneContext::tegra_default();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.schedule_ctx = ctx;
  const auto budgeted = make_server(cfg, 4);
  FmmServer single(cfg);
  const ScopedOmpThreads one_thread(1);

  for (const std::size_t n : {1024, 4096, 8192}) {
    WorkloadConfig wl;
    wl.sizes = {n};
    wl.max_points_per_box = 64;
    // Request index mod 3 picks cube, sphere surface or clusters.
    for (const std::uint64_t shape : {0u, 1u, 2u}) {
      const FmmRequest req = make_request(wl, shape);
      const FmmResponse got = budgeted->submit(req).get();
      const FmmResponse want = single.serve_now(req);
      ASSERT_EQ(got.status, ServeStatus::kOk);
      ASSERT_EQ(want.status, ServeStatus::kOk);
      EXPECT_EQ(got.threads, 4);
      EXPECT_EQ(want.threads, 1);
      const ServeSchedule& a = got.schedule;
      const ServeSchedule& b = want.schedule;
      ASSERT_EQ(a.setting_labels.size(), 6u);
      EXPECT_EQ(a.setting_labels, b.setting_labels)
          << "n=" << n << " shape " << shape;
      EXPECT_TRUE(bitwise_equal({a.pred_time_s}, {b.pred_time_s}));
      EXPECT_TRUE(bitwise_equal({a.pred_energy_j}, {b.pred_energy_j}));
      EXPECT_EQ(a.switches, b.switches);
      EXPECT_TRUE(bitwise_equal(got.potentials, want.potentials));
    }
  }
}

TEST(FmmServer, CacheHitsServeSamePlanAndIdenticalResults) {
  const WorkloadConfig wl = small_workload();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.plan_cache_capacity = 8;
  FmmServer server(cfg);

  // Same request served twice: the second must be a plan-cache hit with
  // bitwise-identical potentials.
  const FmmRequest req = make_request(wl, 0);
  const FmmResponse cold = server.serve_now(req);
  const FmmResponse warm = server.serve_now(req);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.plan_key, warm.plan_key);
  EXPECT_TRUE(bitwise_equal(warm.potentials, cold.potentials));
  EXPECT_TRUE(bitwise_equal(cold.potentials, reference_solve(req)));

  // A different size -> different depth -> different plan key, its own miss.
  const FmmRequest other = make_request(wl, 1);
  const FmmResponse r2 = server.serve_now(other);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_NE(r2.plan_key, cold.plan_key);

  const auto stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);
}

TEST(FmmServer, AdmissionControlShedsWhenQueueFull) {
  const WorkloadConfig wl = small_workload();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  FmmServer server(cfg);

  constexpr std::uint64_t kRequests = 12;
  std::vector<std::future<FmmResponse>> futures;
  for (std::uint64_t i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(make_request(wl, i % 2)));
  std::uint64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const FmmResponse resp = f.get();
    if (resp.status == ServeStatus::kOk) {
      ++ok;
      EXPECT_FALSE(resp.potentials.empty());
    } else {
      ++shed;
      EXPECT_TRUE(resp.potentials.empty());
    }
  }
  EXPECT_EQ(ok + shed, kRequests);
  // A 1-deep queue with a single worker cannot absorb 12 instant arrivals.
  EXPECT_GE(shed, 1u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, ok);
  EXPECT_EQ(stats.shed, shed);
}

TEST(FmmServer, InvalidRequestsAreRejectedAtAdmissionNotCrashed) {
  // One malformed request used to throw inside the worker thread and
  // std::terminate the whole server. Now validation runs at admission and
  // answers kInvalid; the server keeps serving afterwards.
  const WorkloadConfig wl = small_workload();
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  FmmServer server(cfg);

  FmmRequest empty;  // no points at all
  empty.id = 100;

  FmmRequest mismatched = make_request(wl, 0);
  mismatched.id = 101;
  mismatched.densities.pop_back();

  FmmRequest outside = make_request(wl, 1);
  outside.id = 102;
  outside.points[0] = {2.0, 2.0, 2.0};  // outside kServeDomain

  for (FmmRequest* bad : {&empty, &mismatched, &outside}) {
    const FmmResponse resp = server.submit(*bad).get();
    EXPECT_EQ(resp.status, ServeStatus::kInvalid) << "id " << bad->id;
    EXPECT_FALSE(resp.error.empty());
    EXPECT_TRUE(resp.potentials.empty());
  }
  // serve_now applies the same validation.
  const FmmResponse direct = server.serve_now(outside);
  EXPECT_EQ(direct.status, ServeStatus::kInvalid);
  EXPECT_FALSE(direct.error.empty());

  // The server is still healthy: a valid request solves normally.
  const FmmRequest good = make_request(wl, 0);
  const FmmResponse ok = server.submit(good).get();
  ASSERT_EQ(ok.status, ServeStatus::kOk);
  EXPECT_TRUE(bitwise_equal(ok.potentials, reference_solve(good)));

  const auto stats = server.stats();
  EXPECT_EQ(stats.invalid, 4u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.served, 1u);
}

TEST(FmmServer, ValidateRequestEnforcesTheProtocolDomain) {
  const WorkloadConfig wl = small_workload();
  const FmmRequest good = make_request(wl, 0);
  EXPECT_TRUE(validate_request(good).empty());
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();

  // Each mutation of a valid request must be rejected with a reason that
  // names the problem, never internal file:line contract text.
  std::vector<std::pair<std::string, std::function<void(FmmRequest&)>>> bad = {
      {"outside", [](FmmRequest& r) { r.points[3] = {0.5, 0.5, 1.0 + 1e-9}; }},
      {"no points", [](FmmRequest& r) { r.points.clear(); }},
      {"p=", [](FmmRequest& r) { r.p = 0; }},
      {"p=", [](FmmRequest& r) { r.p = 1; }},
      {"p=", [](FmmRequest& r) { r.p = -3; }},
      {"p=", [](FmmRequest& r) { r.p = 17; }},
      {"max_points_per_box", [](FmmRequest& r) { r.max_points_per_box = 0; }},
      {"density", [](FmmRequest& r) { r.densities[5] = nan; }},
      {"density", [](FmmRequest& r) { r.densities[0] = -inf; }},
      {"Yukawa", [](FmmRequest& r) { r.kernel = {KernelKind::kYukawa, nan}; }},
      {"Yukawa", [](FmmRequest& r) { r.kernel = {KernelKind::kYukawa, inf}; }},
      {"Yukawa", [](FmmRequest& r) { r.kernel = {KernelKind::kYukawa, -1.0}; }},
      {"Gaussian",
       [](FmmRequest& r) { r.kernel = {KernelKind::kGaussian, nan}; }},
      {"Gaussian",
       [](FmmRequest& r) { r.kernel = {KernelKind::kGaussian, inf}; }},
      {"Gaussian", [](FmmRequest& r) { r.kernel = {KernelKind::kGaussian, 0}; }},
      {"Gaussian",
       [](FmmRequest& r) { r.kernel = {KernelKind::kGaussian, -0.5}; }},
  };
  for (const auto& [needle, mutate] : bad) {
    FmmRequest req = good;
    mutate(req);
    const std::string reason = validate_request(req);
    EXPECT_NE(reason.find(needle), std::string::npos)
        << "want '" << needle << "' in '" << reason << "'";
    EXPECT_EQ(reason.find(".cpp:"), std::string::npos) << reason;
  }

  // The domain boundaries themselves are valid.
  for (const auto& mutate : std::vector<std::function<void(FmmRequest&)>>{
           [](FmmRequest& r) { r.p = 3; },
           [](FmmRequest& r) { r.p = 16; },
           [](FmmRequest& r) { r.max_points_per_box = 1; },
           [](FmmRequest& r) { r.kernel = {KernelKind::kYukawa, 0.0}; },
           [](FmmRequest& r) { r.kernel = {KernelKind::kLaplace, nan}; }}) {
    FmmRequest req = good;
    mutate(req);
    EXPECT_TRUE(validate_request(req).empty()) << validate_request(req);
  }

  // A p the operators cannot build is an admission rejection, not a
  // server-side fault.
  FmmServer server(ServerConfig{});
  FmmRequest neg_p = good;
  neg_p.p = -3;
  const FmmResponse resp = server.serve_now(neg_p);
  EXPECT_EQ(resp.status, ServeStatus::kInvalid);
  EXPECT_TRUE(resp.potentials.empty());
  EXPECT_EQ(server.stats().errors, 0u);
  EXPECT_EQ(server.stats().invalid, 1u);
}

TEST(FmmServer, SubmitAfterShutdownSheds) {
  const WorkloadConfig wl = small_workload();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  FmmServer server(cfg);
  server.shutdown();
  const FmmResponse resp = server.submit(make_request(wl, 0)).get();
  EXPECT_EQ(resp.status, ServeStatus::kShed);
}

TEST(FmmServer, ScheduleContextAttachesPerPhaseSchedule) {
  const auto ctx = model::TuneContext::tegra_default();
  const WorkloadConfig wl = small_workload();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.plan_cache_capacity = 4;
  cfg.schedule_ctx = ctx;
  FmmServer server(cfg);

  const FmmRequest req = make_request(wl, 0);
  const FmmResponse cold = server.serve_now(req);
  const FmmResponse warm = server.serve_now(req);
  // Six FMM phases, each with a grid label the context's grid knows.
  ASSERT_EQ(cold.schedule.setting_labels.size(), 6u);
  EXPECT_GT(cold.schedule.pred_time_s, 0.0);
  EXPECT_GT(cold.schedule.pred_energy_j, 0.0);
  // The schedule is memoized per (plan key, N): a repeat of the same
  // request shape agrees exactly, cache hit or miss.
  EXPECT_EQ(warm.schedule.setting_labels, cold.schedule.setting_labels);
  EXPECT_EQ(warm.schedule.pred_energy_j, cold.schedule.pred_energy_j);
}

TEST(FmmServer, ScheduleIsKeyedByRequestSizeNotJustPlanKey) {
  // N=256 and N=320 at Q=8 share a uniform depth (2) and therefore one
  // plan-cache key, but their phase workloads differ, so each size gets
  // its own memoized schedule -- independent of which size arrived first
  // (the reviewer's arrival-order/cache-state dependence).
  const auto ctx = model::TuneContext::tegra_default();
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.plan_cache_capacity = 4;
  cfg.schedule_ctx = ctx;

  WorkloadConfig small = small_workload();
  small.sizes = {256};
  WorkloadConfig larger = small_workload();
  larger.sizes = {320};
  const FmmRequest a = make_request(small, 0);
  const FmmRequest b = make_request(larger, 0);

  FmmServer first_order(cfg);
  const FmmResponse a1 = first_order.serve_now(a);
  const FmmResponse b1 = first_order.serve_now(b);
  ASSERT_EQ(a1.plan_key, b1.plan_key);  // one shared plan...
  EXPECT_TRUE(b1.cache_hit);            // ...b rides a's plan build

  FmmServer second_order(cfg);  // reversed arrival order, fresh caches
  const FmmResponse b2 = second_order.serve_now(b);
  const FmmResponse a2 = second_order.serve_now(a);

  // Each size's schedule is identical no matter who built the plan.
  EXPECT_EQ(a1.schedule.setting_labels, a2.schedule.setting_labels);
  EXPECT_EQ(a1.schedule.pred_time_s, a2.schedule.pred_time_s);
  EXPECT_EQ(a1.schedule.pred_energy_j, a2.schedule.pred_energy_j);
  EXPECT_EQ(b1.schedule.setting_labels, b2.schedule.setting_labels);
  EXPECT_EQ(b1.schedule.pred_time_s, b2.schedule.pred_time_s);
  EXPECT_EQ(b1.schedule.pred_energy_j, b2.schedule.pred_energy_j);
  // And the two sizes really were scheduled from different workloads.
  EXPECT_NE(a1.schedule.pred_time_s, b1.schedule.pred_time_s);
}

}  // namespace
}  // namespace eroof::serve
