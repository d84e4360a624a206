#include "core/refresh.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "trace/trace.hpp"
#include "util/require.hpp"

namespace eroof::model {
namespace {

const TuneContext& require_context(
    const std::shared_ptr<const TuneContext>& ctx) {
  EROOF_REQUIRE_MSG(ctx != nullptr, "ClosedLoopScheduler needs a TuneContext");
  return *ctx;
}

}  // namespace

OnlineRefresh::OnlineRefresh(EnergyModel seed, OnlineRefreshConfig cfg,
                             std::span<const FitSample> anchor)
    : cfg_(cfg),
      model_(seed),
      gram_(kNumFitColumns, kForgetting),
      anchor_(kNumFitColumns) {
  for (const FitSample& s : anchor) anchor_.add(design_row(s), s.energy_j);
}

double OnlineRefresh::observe(const FitSample& s) {
  bool finite = std::isfinite(s.energy_j) && std::isfinite(s.time_s) &&
                s.time_s > 0;
  for (const double c : s.ops.n) finite = finite && std::isfinite(c);
  if (!finite) {
    // A poisoned sample must not touch the normal equations: one NaN row
    // would make every later fit NaN, silently.
    ++stats_.rejected;
    return drift_;
  }
  const double pred = model_.predict_energy_j(s.ops, s.setting, s.time_s);
  // eroof: hot-begin (per-observation drift check: one EWMA update)
  const double denom = std::max(std::abs(s.energy_j), 1e-12);
  const double rel = (s.energy_j - pred) / denom;
  drift_ += kDriftAlpha * (rel - drift_);
  // eroof: hot-end
  gram_.add(design_row(s), s.energy_j);
  ++stats_.observations;
  return drift_;
}

bool OnlineRefresh::should_refresh() const {
  if (stats_.observations < cfg_.min_observations) return false;
  if (stats_.observations - stats_.last_refresh_observation < cfg_.cooldown)
    return false;
  return std::abs(drift_) > kDriftBound;
}

FitResult OnlineRefresh::refresh() {
  EROOF_REQUIRE_MSG(gram_.rows() > 0, "no rows accumulated");
  FitResult r;
  if (anchor_.rows() > 0) {
    la::NormalEquations blend = gram_;
    blend.add_scaled(anchor_, kAnchorWeight * gram_.weight() / anchor_.weight());
    r = fit_energy_model(blend);
  } else {
    r = fit_energy_model(gram_);
  }
  model_ = r.model;
  drift_ = 0.0;
  ++stats_.refreshes;
  stats_.last_refresh_observation = stats_.observations;
  trace::counter_add("core.refresh.refits", 1.0);
  return r;
}

hw::Workload idle_probe_workload() {
  hw::Workload w;
  w.name = "pi0_probe";
  return w;  // all counts zero; utilizations at their defaults
}

FitSample probe_fit_sample(const hw::Measurement& m, double ref_time_s) {
  EROOF_REQUIRE(ref_time_s > 0);
  FitSample s = to_fit_sample(m);
  EROOF_REQUIRE_MSG(std::isfinite(s.time_s) && s.time_s > 0,
                    "probe measurement has no usable duration");
  // A zero-op row is linear in its duration, so this is the measured
  // average power restated over the reference window.
  s.energy_j *= ref_time_s / s.time_s;
  s.time_s = ref_time_s;
  return s;
}

ClosedLoopScheduler::ClosedLoopScheduler(
    std::shared_ptr<const TuneContext> ctx, std::vector<hw::Workload> phases,
    OnlineRefreshConfig cfg)
    : ctx_(std::move(ctx)),
      phases_(std::move(phases)),
      refresh_(require_context(ctx_).model, cfg,
               ctx_->samples(hw::SettingRole::kTrain)) {
  EROOF_REQUIRE(!ctx_->grid.empty());
  EROOF_REQUIRE(!phases_.empty());
  install(false);
}

void ClosedLoopScheduler::retarget(std::vector<hw::Workload> phases) {
  EROOF_REQUIRE(!phases.empty());
  phases_ = std::move(phases);
  install(false);
}

void ClosedLoopScheduler::install(bool deadband) {
  const TuneContext& ctx = *ctx_;
  const PhaseGridPrediction pred =
      predict_phase_grid(refresh_.model(), ctx.soc, phases_, ctx.grid);
  PhaseSchedule fresh = schedule_phases(pred, ctx.transitions);
  if (deadband) {
    // Hysteresis: keep the installed picks unless the refreshed model
    // predicts a real improvement from switching (see kInstallDeadband).
    // Either way the stored schedule is priced by the refreshed model.
    PhaseSchedule held = price_schedule(pred, ctx.transitions, schedule_.pick);
    if (fresh.pred_energy_j >= held.pred_energy_j * (1.0 - kInstallDeadband))
      fresh = std::move(held);
  }
  schedule_ = std::move(fresh);
  settings_.resize(schedule_.pick.size());
  for (std::size_t p = 0; p < settings_.size(); ++p)
    settings_[p] = ctx.grid[schedule_.pick[p]];
}

ClosedLoopScheduler::StepReport ClosedLoopScheduler::step(
    double leak_scale, const util::RngStream& noise) {
  const TuneContext& ctx = *ctx_;
  const hw::Soc hot = ctx.soc.with_leakage_scale(leak_scale);
  const hw::SequenceMeasurement seq = hot.run_sequence(
      phases_, settings_, ctx.transitions, meter_, noise, &traces_);
  // Serial mirror, phase order: trace counter totals replay bit for bit.
  for (const hw::PowerTrace& t : traces_) hw::PowerMon::mirror_to_session(t);

  StepReport rep;
  rep.leak_scale = leak_scale;
  rep.measured_energy_j = seq.energy_j;
  rep.measured_time_s = seq.time_s;
  for (const hw::Measurement& m : seq.phases)
    rep.drift = refresh_.observe(to_fit_sample(m));
  // Rotate the probed setting through the *full* grid, not just the
  // schedule's picks: the pi_0 rows must cover voltages the schedule never
  // visits, or the refit cannot extrapolate constant power there.
  const hw::DvfsSetting s = ctx.grid[steps_ % ctx.grid.size()];
  const hw::Measurement m =
      hot.run(idle_probe_workload(), s, meter_, noise.fork("idle"));
  rep.drift = refresh_.observe(probe_fit_sample(m));
  if (refresh_.should_refresh()) {
    refresh_.refresh();
    install(true);
    rep.refreshed = true;
  }
  ++steps_;
  return rep;
}

}  // namespace eroof::model
