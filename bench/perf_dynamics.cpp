// Time-stepping dynamics trajectory: warm incremental session steps vs cold
// per-step rebuilds (the headline of DESIGN.md §13).
//
// The harness precomputes one Langevin trajectory (positions only -- the
// mover is independent of the FMM output), then prices each step three
// ways over the identical positions:
//
//   warm_step           FmmSession::move_to + evaluate_into: octree refit in
//                       the steady state, everything reused;
//   rebuild_shared_plan fresh FmmEvaluator per step sharing one FmmPlan
//                       (what the PR 7 serving path would pay per request);
//   cold_rebuild        fresh legacy FmmEvaluator per step, operators and
//                       all (what the pre-session dynamics loop paid).
//
// The three potentials are cross-checked bitwise per step at every thread
// count -- the harness exits nonzero on any divergence -- so the speedup
// numbers are for *identical* answers. A separate tuned section runs the
// DynamicsEngine with the amortized schedule search and reports the re-tune
// trigger rate.
//
// --bench-json[=path] writes the machine-readable summary (default
// BENCH_dynamics.json); bench/results/BENCH_dynamics.json is the committed
// headline run (n=16384, q=64, p=4).
#ifdef _OPENMP
#include <omp.h>
#endif

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/mover.hpp"
#include "dynamics/particles.hpp"
#include "fmm/session.hpp"
#include "util/rng.hpp"

namespace {

using namespace eroof;
using bench::flag_value;
using bench::Summary;
using bench::summarize;
using bench::write_summary;
using Clock = std::chrono::steady_clock;

constexpr fmm::Box kDomain{{0.5, 0.5, 0.5}, 0.5};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Trajectory {
  std::vector<std::vector<fmm::Vec3>> pos;  ///< positions after step s
  std::vector<double> charge;
};

// Weak confinement: with the default gamma the Ornstein--Uhlenbeck drift
// contracts the initially-uniform cloud ~0.5%/step, which keeps changing
// leaf occupancy and forces rebuilds; near-zero gamma keeps the ensemble
// close to its (uniform) stationary distribution, the steady state this
// harness is pricing.
constexpr double kGamma = 0.05;

/// One trajectory, shared by every row: step s's positions are a pure
/// function of (seed, s), so warm and cold price the same physics.
Trajectory make_trajectory(std::size_t n, int steps, double sigma,
                           std::uint64_t seed) {
  auto ps = dynamics::ParticleSystem::random(n, kDomain, seed);
  dynamics::LangevinMover mover(seed + 1, {.gamma = kGamma, .sigma = sigma});
  Trajectory tr;
  tr.charge = ps.charge;
  tr.pos.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    mover.advance(ps);
    tr.pos.push_back(ps.pos);
  }
  return tr;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Row {
  int threads = 0;
  Summary warm, shared_plan, cold;
  std::uint64_t refits = 0, rebuilds = 0;
  bool bitwise_identical = true;
};

Row measure(const Trajectory& tr, std::uint32_t q, int p, int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
  const auto kernel = std::make_shared<const fmm::LaplaceKernel>();
  const fmm::Octree::Params tree{.max_points_per_box = q, .domain = kDomain};
  const fmm::FmmConfig fcfg{.p = p};

  Row row;
  row.threads = threads;

  fmm::FmmSession session(kernel, tr.pos.front(), {tree, fcfg});
  std::vector<double> warm_phi(tr.charge.size());
  // Step 0 is the cold start (arena sizing); price it separately
  // by evaluating once before the timed loop, exactly like a real run.
  session.evaluate_into(tr.charge, warm_phi);

  std::vector<double> warm_ms, shared_ms, cold_ms;
  for (const auto& pos : tr.pos) {
    const auto t0 = Clock::now();
    session.move_to(pos);
    session.evaluate_into(tr.charge, warm_phi);
    warm_ms.push_back(ms_since(t0));

    const auto t1 = Clock::now();
    fmm::FmmEvaluator shared_ev(session.plan(), pos, tree);
    const auto shared_phi = shared_ev.evaluate(tr.charge);
    shared_ms.push_back(ms_since(t1));

    const auto t2 = Clock::now();
    fmm::FmmEvaluator cold_ev(*kernel, pos, tree, fcfg);
    const auto cold_phi = cold_ev.evaluate(tr.charge);
    cold_ms.push_back(ms_since(t2));

    std::vector<double> warm_copy(warm_phi.begin(), warm_phi.end());
    row.bitwise_identical &= bits_equal(warm_copy, shared_phi);
    row.bitwise_identical &= bits_equal(warm_copy, cold_phi);
  }
  row.warm = summarize(warm_ms);
  row.shared_plan = summarize(shared_ms);
  row.cold = summarize(cold_ms);
  row.refits = session.stats().refits;
  row.rebuilds = session.stats().rebuilds;
  return row;
}

struct TunedSection {
  int steps = 0;
  std::uint64_t tunes = 0, refits = 0, rebuilds = 0;
  double retune_rate = 0;
  int schedule_switches = 0;
  double pred_energy_j = 0;
};

/// The amortized-tuning story: a DynamicsEngine run with the DVFS schedule
/// search gated by the ScheduleReuse drift monitor.
TunedSection run_tuned(std::size_t n, std::uint32_t q, int p, int steps,
                       double sigma, std::uint64_t seed) {
  const auto kernel = std::make_shared<const fmm::LaplaceKernel>();
  dynamics::DynamicsEngine::Config cfg;
  cfg.session.tree = {.max_points_per_box = q, .domain = kDomain};
  cfg.session.fmm = {.p = p};
  cfg.tuning.context = dynamics::TuneContext::tegra_default();
  dynamics::DynamicsEngine engine(
      kernel, dynamics::ParticleSystem::random(n, kDomain, seed), cfg);
  dynamics::LangevinMover mover(seed + 1, {.gamma = kGamma, .sigma = sigma});
  for (int s = 0; s < steps; ++s) engine.step(mover);

  TunedSection t;
  t.steps = steps;
  t.tunes = engine.stats().tunes;
  t.refits = engine.session().stats().refits;
  t.rebuilds = engine.session().stats().rebuilds;
  t.retune_rate = static_cast<double>(t.tunes) / static_cast<double>(steps);
  if (const auto* sched = engine.schedule()) {
    t.schedule_switches = sched->switches;
    t.pred_energy_j = sched->pred_energy_j;
  }
  return t;
}

int run_bench_json(const std::string& path, std::size_t n, std::uint32_t q,
                   int p, int steps, double sigma) {
  const Trajectory tr = make_trajectory(n, steps, sigma, 7);

  std::vector<Row> rows;
  for (const int t : bench::sweep_thread_counts()) {
    std::fprintf(stderr,
                 "bench-json: n=%zu q=%u p=%d steps=%d sigma=%g threads=%d\n",
                 n, q, p, steps, sigma, t);
    rows.push_back(measure(tr, q, p, t));
  }

  // The tuned section is about trigger rates, not wall time; run it at a
  // modest size so the GPU-profile replay stays cheap.
  const std::size_t tuned_n = std::min<std::size_t>(n, 8192);
  std::fprintf(stderr, "bench-json: tuned section n=%zu steps=%d\n", tuned_n,
               steps);
  const TunedSection tuned = run_tuned(tuned_n, q, p, steps, sigma, 7);

  bool all_identical = true;
  for (const Row& r : rows) all_identical &= r.bitwise_identical;

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench-json: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"fmm_dynamics\",\n";
  out << "  \"kernel\": \"laplace\",\n";
  out << "  \"n\": " << n << ",\n";
  out << "  \"q\": " << q << ",\n";
  out << "  \"p\": " << p << ",\n";
  out << "  \"steps\": " << steps << ",\n";
  out << "  \"sigma\": " << sigma << ",\n";
  out << "  \"bitwise_identical\": " << (all_identical ? "true" : "false")
      << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    out << "    {\n      \"threads\": " << row.threads << ",\n";
    out << "      \"warm_step\": ";
    write_summary(out, row.warm);
    out << ",\n      \"rebuild_shared_plan\": ";
    write_summary(out, row.shared_plan);
    out << ",\n      \"cold_rebuild\": ";
    write_summary(out, row.cold);
    out << ",\n      \"warm_vs_cold_speedup\": "
        << (row.warm.median > 0 ? row.cold.median / row.warm.median : 0)
        << ",\n";
    out << "      \"refits\": " << row.refits
        << ", \"rebuilds\": " << row.rebuilds << "\n    }"
        << (r + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"tuned\": {\n";
  out << "    \"n\": " << tuned_n << ", \"steps\": " << tuned.steps << ",\n";
  out << "    \"tunes\": " << tuned.tunes
      << ", \"retune_rate\": " << tuned.retune_rate << ",\n";
  out << "    \"refits\": " << tuned.refits
      << ", \"rebuilds\": " << tuned.rebuilds << ",\n";
  out << "    \"schedule_switches\": " << tuned.schedule_switches
      << ", \"pred_energy_j\": " << tuned.pred_energy_j << "\n";
  out << "  }\n}\n";
  std::fprintf(stderr, "bench-json: wrote %s\n", path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench-json: FAIL -- warm/shared/cold potentials diverged\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_dynamics.json";
  std::size_t n = 16384;
  std::uint32_t q = 64;
  int p = 4;
  int steps = 16;
  double sigma = 0.008;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (flag_value(argv[i], "--bench-json", &v)) {
      if (!v.empty()) json_path = v;
    } else if (flag_value(argv[i], "--bench-n", &v)) {
      n = static_cast<std::size_t>(std::stoull(v));
    } else if (flag_value(argv[i], "--bench-q", &v)) {
      q = static_cast<std::uint32_t>(std::stoul(v));
    } else if (flag_value(argv[i], "--bench-p", &v)) {
      p = std::stoi(v);
    } else if (flag_value(argv[i], "--bench-steps", &v)) {
      steps = std::stoi(v);
    } else if (flag_value(argv[i], "--bench-sigma", &v)) {
      sigma = std::stod(v);
    }
    v.clear();
  }
  return run_bench_json(json_path, n, q, p, steps, sigma);
}
