// Golden regression: one FmmEvaluator::evaluate emits exactly one span per
// paper phase (UP/U/V/W/X/DOWN, category "fmm.phase"), nested under one
// "evaluate" span and disjoint in time (wall time, not busy time), with span
// args and registry totals matching the evaluator's own FmmStats tallies
// exactly.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fmm/evaluator.hpp"
#include "fmm/pointgen.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace eroof {
namespace {

constexpr const char* kPhases[] = {"UP", "U", "V", "W", "X", "DOWN"};

std::map<std::string, double> args_of(const trace::SpanEvent& s) {
  std::map<std::string, double> out;
  for (const auto& a : s.args) out[a.key] = a.value;
  return out;
}

const fmm::FmmStats::Phase& phase_stats(const fmm::FmmStats& st,
                                        const std::string& name) {
  if (name == "UP") return st.up;
  if (name == "U") return st.u;
  if (name == "V") return st.v;
  if (name == "W") return st.w;
  if (name == "X") return st.x;
  return st.down;
}

TEST(FmmTrace, OneSpanPerPhaseWithTalliesMatchingStats) {
  const fmm::LaplaceKernel kernel;
  util::Rng rng(21);
  const std::size_t n = 4096;
  const auto pts = fmm::uniform_cube(n, rng);
  fmm::FmmEvaluator ev(kernel, pts, {.max_points_per_box = 48},
                       fmm::FmmConfig{.p = 3});
  std::vector<double> dens(n);
  for (auto& d : dens) d = rng.uniform(-1.0, 1.0);

  trace::TraceSession session;
  {
    trace::SessionGuard guard(session);
    ev.evaluate(dens);
  }
  const auto& st = ev.stats();
  const auto spans = session.spans();

  // Exactly one span per phase, all nested under exactly one evaluate span.
  std::map<std::string, int> phase_count;
  int eval_count = 0;
  for (const auto& s : spans) {
    if (s.category == "fmm.phase") {
      ++phase_count[s.name];
      EXPECT_EQ(s.depth, 1) << s.name;
    } else if (s.category == "fmm" && s.name == "evaluate") {
      ++eval_count;
      EXPECT_EQ(s.depth, 0);
    }
  }
  EXPECT_EQ(eval_count, 1);
  ASSERT_EQ(phase_count.size(), 6u);
  for (const char* p : kPhases) EXPECT_EQ(phase_count[p], 1) << p;

  // Phases run one after another, so the phase spans are wall time: inside
  // the evaluate span and pairwise disjoint, in emission (= phase) order.
  // Start and duration are each truncated to whole microseconds, hence the
  // 1 us slack.
  const trace::SpanEvent* eval = nullptr;
  std::vector<const trace::SpanEvent*> phases;
  for (const auto& s : spans) {
    if (s.category == "fmm.phase") phases.push_back(&s);
    if (s.category == "fmm" && s.name == "evaluate") eval = &s;
  }
  ASSERT_NE(eval, nullptr);
  const auto end_us = [](const trace::SpanEvent* s) {
    return s->start_us + s->dur_us;
  };
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_GE(phases[i]->start_us, eval->start_us) << phases[i]->name;
    EXPECT_LE(end_us(phases[i]), end_us(eval) + 1) << phases[i]->name;
    if (i > 0) {
      EXPECT_LE(end_us(phases[i - 1]), phases[i]->start_us + 1)
          << phases[i - 1]->name << " overlaps " << phases[i]->name;
    }
  }

  // Span args and registry totals reproduce the FmmStats tallies exactly.
  const auto totals = session.counter_totals();
  for (const auto& s : spans) {
    if (s.category != "fmm.phase") continue;
    const auto& ph = phase_stats(st, s.name);
    const auto args = args_of(s);
    EXPECT_EQ(args.at("kernel_evals"), ph.kernel_evals) << s.name;
    EXPECT_EQ(args.at("pair_count"), ph.pair_count) << s.name;
    EXPECT_EQ(args.at("ffts"), ph.ffts) << s.name;
    EXPECT_EQ(args.at("hadamard_cmuls"), ph.hadamard_cmuls) << s.name;
    EXPECT_EQ(args.at("solve_matvecs"), ph.solve_matvecs) << s.name;

    const std::string prefix = "fmm." + s.name + ".";
    EXPECT_EQ(totals.at(prefix + "kernel_evals"), ph.kernel_evals) << s.name;
    EXPECT_EQ(totals.at(prefix + "pair_count"), ph.pair_count) << s.name;
    EXPECT_EQ(totals.at(prefix + "solve_matvecs"), ph.solve_matvecs)
        << s.name;
  }

  // The phases do real work on this input: the tallies cannot all be zero.
  EXPECT_GT(st.up.kernel_evals, 0);
  EXPECT_GT(st.u.kernel_evals, 0);
  EXPECT_GT(st.v.pair_count, 0);
  EXPECT_GT(st.down.solve_matvecs, 0);
}

TEST(FmmTrace, NoSessionMeansNoSpansAndIdenticalResults) {
  const fmm::LaplaceKernel kernel;
  util::Rng rng(22);
  const std::size_t n = 2048;
  const auto pts = fmm::uniform_cube(n, rng);
  std::vector<double> dens(n, 1.0);
  fmm::FmmEvaluator ev(kernel, pts, {.max_points_per_box = 48},
                       fmm::FmmConfig{.p = 3});

  // Traced and untraced evaluations must agree bit-for-bit: the spans only
  // observe the phases, they must not perturb them.
  const auto phi_untraced = ev.evaluate(dens);
  trace::TraceSession session;
  {
    trace::SessionGuard guard(session);
    const auto phi_traced = ev.evaluate(dens);
    ASSERT_EQ(phi_traced.size(), phi_untraced.size());
    for (std::size_t i = 0; i < phi_traced.size(); ++i)
      EXPECT_EQ(phi_traced[i], phi_untraced[i]) << i;
  }
  EXPECT_EQ(session.spans().size(), 7u);  // 6 phases + evaluate

  // With no session installed, nothing is recorded anywhere.
  trace::TraceSession idle;
  ev.evaluate(dens);
  EXPECT_TRUE(idle.spans().empty());
  EXPECT_TRUE(idle.counter_totals().empty());
}

}  // namespace
}  // namespace eroof
