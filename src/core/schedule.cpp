#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "trace/trace.hpp"
#include "ubench/campaign.hpp"
#include "util/require.hpp"

namespace eroof::model {
namespace {

/// Transition cost (in objective units: joules, with stalls converted via
/// `time_weight`) of entering grid index `to` from grid index `from`.
double transition_cost(const PhaseGridPrediction& pred,
                       const hw::DvfsTransitionModel& tm, std::size_t from,
                       std::size_t to, double time_weight) {
  const int nd = tm.changed_domains(pred.grid[from], pred.grid[to]);
  if (nd == 0) return 0.0;
  return tm.energy_j * nd +
         tm.latency_s * (pred.const_power_w[to] + time_weight);
}

/// True when schedule `a` is dominated by `b` (no better on either axis,
/// strictly worse on at least one).
bool dominated(const PhaseSchedule& a, const PhaseSchedule& b) {
  return b.pred_time_s <= a.pred_time_s && b.pred_energy_j <= a.pred_energy_j &&
         (b.pred_time_s < a.pred_time_s || b.pred_energy_j < a.pred_energy_j);
}

}  // namespace

std::shared_ptr<const TuneContext> TuneContext::tegra_default() {
  const auto soc = hw::Soc::tegra_k1();
  const auto campaign =
      ub::paper_campaign(soc, hw::PowerMon{}, util::RngStream(42));
  std::vector<FitSample> train;
  for (const auto& s : campaign)
    if (s.role == hw::SettingRole::kTrain)
      train.push_back(to_fit_sample(s.meas));
  const EnergyModel model = fit_energy_model(train).model;
  return std::make_shared<const TuneContext>(
      TuneContext{soc, model, hw::full_grid(),
                  hw::DvfsTransitionModel{100e-6, 50e-6}, std::move(train)});
}

PhaseGridPrediction predict_phase_grid(const EnergyModel& model,
                                       const hw::Soc& soc,
                                       std::span<const hw::Workload> phases,
                                       std::span<const hw::DvfsSetting> grid) {
  EROOF_REQUIRE(!phases.empty());
  EROOF_REQUIRE(!grid.empty());
  trace::ScopedSpan span("predict_phase_grid", "model.schedule");

  PhaseGridPrediction pred;
  pred.phase_names.reserve(phases.size());
  for (const auto& w : phases) pred.phase_names.push_back(w.name);
  pred.grid.assign(grid.begin(), grid.end());
  const std::size_t np = phases.size();
  const std::size_t ns = grid.size();
  pred.time_s.resize(np * ns);
  pred.energy_j.resize(np * ns);
  pred.const_power_w.resize(ns);

  for (std::size_t s = 0; s < ns; ++s)
    pred.const_power_w[s] = model.constant_power_w(grid[s]);

  // eroof: hot-begin (per-(phase, setting) prediction grid: disjoint writes)
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t cell = 0; cell < static_cast<std::ptrdiff_t>(np * ns);
       ++cell) {
    const std::size_t p = static_cast<std::size_t>(cell) / ns;
    const std::size_t s = static_cast<std::size_t>(cell) % ns;
    const double t = soc.execution_time(phases[p], grid[s]);
    pred.time_s[cell] = t;
    pred.energy_j[cell] = model.predict_energy_j(phases[p].ops, grid[s], t);
  }
  // eroof: hot-end

  if (span.active()) {
    span.arg("phases", static_cast<double>(np));
    span.arg("settings", static_cast<double>(ns));
  }
  return pred;
}

PhaseSchedule schedule_phases(const PhaseGridPrediction& pred,
                              const hw::DvfsTransitionModel& transitions,
                              double time_weight) {
  const std::size_t np = pred.n_phases();
  const std::size_t ns = pred.n_settings();
  EROOF_REQUIRE(np >= 1 && ns >= 1);
  EROOF_REQUIRE(time_weight >= 0);
  trace::ScopedSpan span("schedule_phases", "model.schedule");

  // dp[s] = minimal objective of phases 0..p with phase p at setting s;
  // back[p * ns + s] = the argmin predecessor setting of that state.
  std::vector<double> dp(ns);
  std::vector<double> next(ns);
  std::vector<std::size_t> back(np * ns, 0);

  // eroof: hot-begin (chain DP over phases x settings^2)
  for (std::size_t s = 0; s < ns; ++s)
    dp[s] = pred.energy_at(0, s) + time_weight * pred.time_at(0, s);

  for (std::size_t p = 1; p < np; ++p) {
    for (std::size_t s = 0; s < ns; ++s) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_prev = 0;
      for (std::size_t q = 0; q < ns; ++q) {
        const double c =
            dp[q] + transition_cost(pred, transitions, q, s, time_weight);
        if (c < best) {
          best = c;
          best_prev = q;
        }
      }
      next[s] = best + pred.energy_at(p, s) + time_weight * pred.time_at(p, s);
      back[p * ns + s] = best_prev;
    }
    std::swap(dp, next);
  }

  std::size_t last = 0;
  for (std::size_t s = 1; s < ns; ++s)
    if (dp[s] < dp[last]) last = s;
  // eroof: hot-end

  std::vector<std::size_t> pick(np);
  pick[np - 1] = last;
  for (std::size_t p = np - 1; p > 0; --p)
    pick[p - 1] = back[p * ns + pick[p]];
  PhaseSchedule out = price_schedule(pred, transitions, pick);

  if (span.active()) {
    span.arg("pred_energy_j", out.pred_energy_j);
    span.arg("pred_time_s", out.pred_time_s);
    span.arg("switches", static_cast<double>(out.switches));
  }
  return out;
}

PhaseSchedule price_schedule(const PhaseGridPrediction& pred,
                             const hw::DvfsTransitionModel& transitions,
                             std::span<const std::size_t> pick) {
  EROOF_REQUIRE(pick.size() == pred.n_phases());
  PhaseSchedule s;
  s.pick.assign(pick.begin(), pick.end());
  for (std::size_t p = 0; p < pick.size(); ++p) {
    EROOF_REQUIRE(pick[p] < pred.n_settings());
    s.pred_time_s += pred.time_at(p, pick[p]);
    s.pred_energy_j += pred.energy_at(p, pick[p]);
    if (p > 0) {
      const int nd = transitions.changed_domains(pred.grid[pick[p - 1]],
                                                 pred.grid[pick[p]]);
      if (nd > 0) {
        s.switches += nd;
        s.pred_time_s += transitions.latency_s;
        s.pred_energy_j += transitions.energy_j * nd +
                           transitions.latency_s * pred.const_power_w[pick[p]];
      }
    }
  }
  return s;
}

PhaseSchedule best_uniform_schedule(const PhaseGridPrediction& pred,
                                    double time_weight) {
  const std::size_t np = pred.n_phases();
  const std::size_t ns = pred.n_settings();
  EROOF_REQUIRE(np >= 1 && ns >= 1);

  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  // eroof: hot-begin (uniform-setting scan)
  for (std::size_t s = 0; s < ns; ++s) {
    double c = 0;
    for (std::size_t p = 0; p < np; ++p)
      c += pred.energy_at(p, s) + time_weight * pred.time_at(p, s);
    if (c < best_cost) {
      best_cost = c;
      best = s;
    }
  }
  // eroof: hot-end

  return price_schedule(pred, {}, std::vector<std::size_t>(np, best));
}

PhaseSchedule race_to_halt_schedule(const PhaseGridPrediction& pred) {
  EROOF_REQUIRE(pred.n_phases() >= 1 && pred.n_settings() >= 1);
  std::size_t race = 0;
  for (std::size_t s = 1; s < pred.n_settings(); ++s) {
    const auto& a = pred.grid[race];
    const auto& b = pred.grid[s];
    if (b.core.freq_mhz > a.core.freq_mhz ||
        (b.core.freq_mhz == a.core.freq_mhz &&
         b.mem.freq_mhz > a.mem.freq_mhz))
      race = s;
  }
  return price_schedule(pred, {},
                        std::vector<std::size_t>(pred.n_phases(), race));
}

std::vector<ParetoPoint> pareto_frontier(
    const PhaseGridPrediction& pred, const hw::DvfsTransitionModel& transitions,
    std::span<const double> time_weights) {
  std::vector<ParetoPoint> points;
  points.reserve(time_weights.size());
  for (const double w : time_weights) {
    PhaseSchedule s = schedule_phases(pred, transitions, w);
    const bool duplicate =
        std::any_of(points.begin(), points.end(), [&](const ParetoPoint& p) {
          return p.schedule.pick == s.pick;
        });
    if (!duplicate) points.push_back({w, std::move(s)});
  }

  std::vector<ParetoPoint> frontier;
  frontier.reserve(points.size());
  for (const auto& cand : points) {
    const bool dom =
        std::any_of(points.begin(), points.end(), [&](const ParetoPoint& o) {
          return dominated(cand.schedule, o.schedule);
        });
    if (!dom) frontier.push_back(cand);
  }
  std::sort(frontier.begin(), frontier.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              return a.schedule.pred_time_s < b.schedule.pred_time_s;
            });
  return frontier;
}

ScheduleGroundTruth true_schedule_cost(
    const hw::Soc& soc, std::span<const hw::Workload> phases,
    const PhaseGridPrediction& pred, const PhaseSchedule& sched,
    const hw::DvfsTransitionModel& transitions) {
  EROOF_REQUIRE(phases.size() == sched.pick.size());
  ScheduleGroundTruth out;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const hw::DvfsSetting& s = pred.grid[sched.pick[p]];
    const double t = soc.execution_time(phases[p], s);
    out.time_s += t;
    out.energy_j += soc.true_energy_j(phases[p], s, t);
    if (p > 0) {
      const hw::DvfsSetting& prev = pred.grid[sched.pick[p - 1]];
      const int nd = transitions.changed_domains(prev, s);
      if (nd > 0) {
        out.time_s += transitions.latency_s;
        out.energy_j += transitions.energy_j * nd +
                        transitions.latency_s * soc.true_constant_power_w(s);
      }
    }
  }
  return out;
}

ScheduleComparison compare_strategies(const EnergyModel& model,
                                      const hw::Soc& soc,
                                      std::span<const hw::Workload> phases,
                                      std::span<const hw::DvfsSetting> grid,
                                      const hw::DvfsTransitionModel& transitions,
                                      double time_weight) {
  const PhaseGridPrediction pred =
      predict_phase_grid(model, soc, phases, grid);
  ScheduleComparison cmp;
  cmp.per_phase = schedule_phases(pred, transitions, time_weight);
  cmp.uniform = best_uniform_schedule(pred, time_weight);
  cmp.race = race_to_halt_schedule(pred);
  cmp.per_phase_true =
      true_schedule_cost(soc, phases, pred, cmp.per_phase, transitions);
  cmp.uniform_true =
      true_schedule_cost(soc, phases, pred, cmp.uniform, transitions);
  cmp.race_true = true_schedule_cost(soc, phases, pred, cmp.race, transitions);
  return cmp;
}

const PhaseSchedule& ScheduleMemo::schedule_for_plan(
    const std::string& plan_key,
    const std::function<PhaseSchedule()>& compute) {
  // Counter bumps happen outside mu_: trace::counter_add acquires the
  // process-wide trace mutex, and holding mu_ across it would stall every
  // other memo lookup behind an unrelated tracing lock. Entries are never
  // removed, so returning a reference read under the lock stays valid.
  {
    const PhaseSchedule* hit = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = memo_.find(plan_key);
      if (it != memo_.end()) hit = it->second.get();
    }
    if (hit != nullptr) {
      trace::counter_add("core.schedule_memo.hit", 1.0);
      return *hit;
    }
  }
  // Compute outside the lock; `compute` is deterministic, so if two threads
  // race on a fresh key both produce the same schedule and the loser's copy
  // is simply dropped.
  auto result = std::make_unique<PhaseSchedule>(compute());
  const PhaseSchedule* out = nullptr;
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, ins] = memo_.try_emplace(plan_key, std::move(result));
    inserted = ins;
    out = it->second.get();
  }
  trace::counter_add(inserted ? "core.schedule_memo.miss"
                              : "core.schedule_memo.hit",
                     1.0);
  return *out;
}

std::size_t ScheduleMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

void ScheduleReuse::install(PhaseSchedule schedule,
                            std::span<const double> phase_work) {
  schedule_ = std::move(schedule);
  work0_.assign(phase_work.begin(), phase_work.end());
  ++stats_.installs;
  trace::counter_add("core.schedule_reuse.install", 1.0);
}

double ScheduleReuse::divergence(std::span<const double> phase_work) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (work0_.empty() || phase_work.size() != work0_.size()) return kInf;
  double worst = 0.0;
  // eroof: hot-begin (per-step drift check: relative work divergence)
  for (std::size_t p = 0; p < work0_.size(); ++p) {
    const double w0 = work0_[p];
    const double w = phase_work[p];
    // Non-finite tallies (a NaN from a poisoned counter, an inf from
    // overflow) must read as infinite drift: NaN loses every ordered
    // comparison, so std::max below would silently drop it and
    // needs_retune's `divergence > bound` would stay false forever.
    if (!std::isfinite(w) || !std::isfinite(w0)) return kInf;
    if (w0 == 0.0) {
      if (w != 0.0) return kInf;
      continue;  // a phase with no work then and none now says nothing
    }
    worst = std::max(worst, std::abs(w / w0 - 1.0));
  }
  // eroof: hot-end
  return worst;
}

bool ScheduleReuse::needs_retune(std::span<const double> phase_work) {
  if (work0_.empty() || phase_work.size() != work0_.size()) {
    // No baseline, or one for a different phase structure: the installed
    // schedule cannot even be compared, so the caller must re-install --
    // a different event than drift-triggered re-search, counted apart.
    ++stats_.incompatible;
    trace::counter_add("core.schedule_reuse.incompatible", 1.0);
    return true;
  }
  if (divergence(phase_work) > bound_) {
    ++stats_.retunes;
    trace::counter_add("core.schedule_reuse.retune", 1.0);
    return true;
  }
  ++stats_.reuses;
  return false;
}

}  // namespace eroof::model
