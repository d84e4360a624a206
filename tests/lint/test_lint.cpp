// Tests for tools/lint: the rule engine in-process (exact file:line:rule
// findings on the seeded fixtures) and the eroof_lint binary end-to-end
// (exact exit codes, output format, suppression audit trail).
//
// EROOF_LINT_FIXTURES and EROOF_LINT_BIN are injected by tests/CMakeLists.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace eroof::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(EROOF_LINT_FIXTURES) + "/" + name;
}

/// All (line, rule) pairs of non-suppressed findings, in report order.
std::vector<std::pair<int, std::string>> violations(const FileReport& rep) {
  std::vector<std::pair<int, std::string>> v;
  for (const auto& f : rep.findings)
    if (!f.suppressed) v.emplace_back(f.line, f.rule);
  return v;
}

// ---------------------------------------------------------------------------
// Rule engine on the fixtures
// ---------------------------------------------------------------------------

TEST(LintRules, FlagsEverySeededDeterminismViolation) {
  const auto rep = lint_file(fixture("bad_determinism.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {8, "nondet-rand"},           {10, "nondet-rand"},
      {12, "nondet-rand"},          {15, "nondet-rand"},
      {20, "nondet-rand"},          {28, "nondet-unordered-iter"},
      {34, "nondet-omp"},           {36, "nondet-omp"},
      {41, "nondet-rand"},
  };
  EXPECT_EQ(violations(rep), expected);
}

TEST(LintRules, FlagsEverySeededHotPathAllocation) {
  const auto rep = lint_file(fixture("bad_hotpath.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {9, "hot-alloc"},  {10, "hot-alloc"}, {11, "hot-alloc"},
      {12, "hot-alloc"}, {13, "hot-alloc"}, {14, "hot-alloc"},
  };
  EXPECT_EQ(violations(rep), expected);
}

TEST(LintRules, FlagsThreadSpawnsInsideHotServeLoop) {
  const auto rep = lint_file(fixture("bad_serve_loop.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {10, "hot-alloc"},
      {11, "hot-alloc"},
  };
  EXPECT_EQ(violations(rep), expected);
}

TEST(LintRules, FlagsAllocationAndLibcRandInHotStepperLoop) {
  // The dynamics stepping loop is a hot region: per-step heap scratch,
  // container growth, and unseeded libc randomness are all banned inside
  // it, while sizing buffers outside the region stays legal.
  const auto rep = lint_file(fixture("bad_stepper.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {11, "hot-alloc"},
      {12, "hot-alloc"},
      {13, "hot-alloc"},
      {14, "nondet-rand"},
  };
  EXPECT_EQ(violations(rep), expected);
  for (const auto& f : rep.findings) EXPECT_LT(f.line, 20) << f.message;
}

TEST(LintRules, AllocationOutsideHotRegionIsFine) {
  const auto rep = lint_file(fixture("bad_hotpath.cpp"), Options{});
  for (const auto& f : rep.findings) EXPECT_LT(f.line, 20) << f.message;
}

TEST(LintRules, FlagsAllocationsInExecutorWorkerLoop) {
  // A task-graph worker loop is a hot region: per-task strings, type-erased
  // bodies, heap scratch, and container growth are all banned there, while
  // graph-build code below the region may allocate freely.
  const auto rep = lint_file(fixture("bad_executor.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {17, "hot-alloc"},
      {18, "hot-alloc"},
      {19, "hot-alloc"},
      {20, "hot-alloc"},
  };
  EXPECT_EQ(violations(rep), expected);
  for (const auto& f : rep.findings) EXPECT_LT(f.line, 28) << f.message;
}

TEST(LintRules, FlagsHeaderHygiene) {
  const auto rep = lint_file(fixture("bad_header.hpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {5, "header-using-namespace"},
      {1, "header-pragma-once"},
  };
  EXPECT_EQ(violations(rep), expected);
}

TEST(LintRules, FlagsUnbalancedAnnotations) {
  const auto rep = lint_file(fixture("bad_annotation.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {3, "annotation-mismatch"},
      {7, "annotation-mismatch"},
  };
  EXPECT_EQ(violations(rep), expected);
}

TEST(LintRules, CleanFixtureHasNoViolations) {
  const auto rep = lint_file(fixture("clean.cpp"), Options{});
  EXPECT_TRUE(violations(rep).empty());
  // ... but the justified simd reduction shows up in the audit trail.
  std::size_t suppressed = 0;
  for (const auto& f : rep.findings) suppressed += f.suppressed ? 1 : 0;
  EXPECT_EQ(suppressed, 1u);
}

// ---------------------------------------------------------------------------
// Suppression semantics: allowed and disallowed violation of the same rule
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameRuleAllowedAndDeniedInOneFile) {
  const auto rep = lint_file(fixture("suppressed_pair.cpp"), Options{});
  ASSERT_EQ(rep.findings.size(), 2u);
  EXPECT_EQ(rep.findings[0].line, 7);
  EXPECT_EQ(rep.findings[0].rule, "nondet-rand");
  EXPECT_TRUE(rep.findings[0].suppressed);
  EXPECT_EQ(rep.findings[1].line, 9);
  EXPECT_EQ(rep.findings[1].rule, "nondet-rand");
  EXPECT_FALSE(rep.findings[1].suppressed);
}

TEST(LintSuppression, TrailingAllowOnTheSameLine) {
  const auto rep = lint_content(
      "f.cpp", "int f() { return std::rand(); }  // eroof-lint: allow(nondet-rand) why\n",
      Options{});
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_TRUE(rep.findings[0].suppressed);
}

TEST(LintSuppression, AllowOnlySuppressesItsOwnRule) {
  const auto rep = lint_content(
      "f.cpp", "int f() { return std::rand(); }  // eroof-lint: allow(hot-alloc)\n",
      Options{});
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_FALSE(rep.findings[0].suppressed);
  // The mismatched allow() is reported as unused.
  bool unused_note = false;
  for (const auto& n : rep.notes)
    unused_note |= n.text.find("unused suppression") != std::string::npos;
  EXPECT_TRUE(unused_note);
}

TEST(LintSuppression, UnknownRuleIdGetsANote) {
  const auto rep =
      lint_content("f.cpp", "int x;  // eroof-lint: allow(no-such-rule)\n",
                   Options{});
  bool unknown_note = false;
  for (const auto& n : rep.notes)
    unknown_note |= n.text.find("unknown rule id") != std::string::npos;
  EXPECT_TRUE(unknown_note);
}

// ---------------------------------------------------------------------------
// Scanner: comments and strings are not code
// ---------------------------------------------------------------------------

TEST(LintScanner, StringsAndCommentsAreNotFlagged) {
  const char* src =
      "// std::rand() in a line comment\n"
      "/* srand(1); in a block\n"
      "   comment spanning lines */\n"
      "const char* s = \"std::rand()\";\n"
      "const char* r = R\"(time(nullptr))\";\n";
  const auto rep = lint_content("f.cpp", src, Options{});
  EXPECT_TRUE(violations(rep).empty());
}

TEST(LintScanner, BlockCommentHidesCodeUntilClosed) {
  const auto lines = scan_lines("int a; /* x\ny */ int b;\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].code, "int a; ");
  EXPECT_NE(lines[1].code.find("int b;"), std::string::npos);
}

TEST(LintScanner, EscapedQuotesStayInsideStrings) {
  const auto rep = lint_content(
      "f.cpp", "const char* s = \"a\\\"b std::rand() c\"; int x = 1;\n",
      Options{});
  EXPECT_TRUE(violations(rep).empty());
}

TEST(LintScanner, MemberCallsNamedTimeAreNotWallClockReads) {
  const auto rep = lint_content(
      "f.cpp", "double d = span.time() + clock.time(3) + t0.time_since_epoch();\n",
      Options{});
  EXPECT_TRUE(violations(rep).empty());
}

// ---------------------------------------------------------------------------
// Scanner robustness regressions. Each of these reproduced a concrete
// mis-scan before the corresponding fix: treat them as pinned behavior.
// ---------------------------------------------------------------------------

TEST(LintScanner, BackslashSplicedLineCommentSwallowsTheNextLine) {
  // Phase 2 of translation joins spliced lines before comments are
  // recognized: the second physical line is comment text, not code.
  const auto rep = lint_content("f.cpp",
                                "// comment continued \\\n"
                                "std::rand();\n"
                                "int live = std::rand();\n",
                                Options{});
  const auto v = violations(rep);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, 3);
  EXPECT_EQ(v[0].second, "nondet-rand");
}

TEST(LintScanner, EscapedNewlineInsideStringKeepsLineNumbersInSync) {
  const auto rep = lint_content("f.cpp",
                                "const char* s = \"split \\\n"
                                "string std::rand()\";\n"
                                "std::rand();\n",
                                Options{});
  const auto v = violations(rep);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, 3);
}

TEST(LintScanner, RawStringDelimitersAreHonored) {
  // A plain `)"` inside an R"ab(...)ab" literal must not terminate it; only
  // the exact `)ab"` closer does.
  const auto rep = lint_content(
      "f.cpp",
      "const char* s = R\"ab(quote )\" std::rand() still inside)ab\";\n"
      "std::rand();\n",
      Options{});
  const auto v = violations(rep);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, 2);
}

TEST(LintScanner, HotBeginInsideBlockCommentIsInert) {
  // A hot-begin annotation nested in a /* */ block is commented-out comment
  // text: it must open no region and trip no annotation-mismatch.
  const auto rep = lint_content("f.cpp",
                                "/* disabled:\n"
                                "// eroof: hot-begin (dead)\n"
                                "*/\n"
                                "std::vector<int> v;\n"
                                "void f() { v.push_back(1); }\n",
                                Options{});
  EXPECT_TRUE(violations(rep).empty());
  EXPECT_TRUE(lint_content("f.cpp", "/* // eroof: hot-end */\n", Options{})
                  .findings.empty());
}

// ---------------------------------------------------------------------------
// Concurrency rule family
// ---------------------------------------------------------------------------

TEST(LintConcurrency, FlagsEverySeededConcurrencyViolation) {
  const auto rep = lint_file(fixture("bad_concurrency.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {14, "conc-blocking-under-lock"},
      {19, "conc-detached-thread"},
      {23, "relaxed-atomic"},
      {29, "conc-unseeded-rng"},
  };
  EXPECT_EQ(violations(rep), expected);
}

TEST(LintConcurrency, UnlockBeforeBlockingCallIsClean) {
  const auto rep = lint_content("f.cpp",
                                "void f(std::unique_lock<std::mutex>& lk,\n"
                                "       std::condition_variable& cv) {\n"
                                "  lk.unlock();\n"
                                "  cv.notify_one();\n"
                                "}\n",
                                Options{});
  EXPECT_TRUE(violations(rep).empty());
}

TEST(LintConcurrency, UnlockInsideABranchReleasesThatBranchOnly) {
  // The hit branch's unlock() covers the hit branch; the eviction tally and
  // the wait after it still run under the guard.
  const auto rep = lint_file(fixture("bad_branch_unlock.cpp"), Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {35, "conc-blocking-under-lock"},
      {46, "conc-blocking-under-lock"},
  };
  EXPECT_EQ(violations(rep), expected);
  for (const auto& f : rep.findings)
    EXPECT_NE(f.message.find(f.line == 35 ? "at line 22" : "at line 41"),
              std::string::npos)
        << f.message;
}

TEST(LintConcurrency, UnlockAtScopeDepthOutlivesANestedBlock) {
  const auto rep = lint_content("f.cpp",
                                "void f(bool x) {\n"
                                "  std::unique_lock<std::mutex> lk(mu);\n"
                                "  lk.unlock();\n"
                                "  if (x) { g(); }\n"
                                "  std::this_thread::sleep_for(d);\n"
                                "  lk.lock();\n"
                                "  std::this_thread::sleep_for(d);\n"
                                "}\n",
                                Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {7, "conc-blocking-under-lock"},
  };
  EXPECT_EQ(violations(rep), expected);
}

TEST(LintConcurrency, RelaxedAtomicAllowIsAnAuditedSuppression) {
  const auto rep = lint_content(
      "f.cpp",
      "int f(std::atomic<int>& a) {\n"
      "  return a.load(std::memory_order_relaxed);  "
      "// eroof-lint: allow(relaxed-atomic) monotonic tally\n"
      "}\n",
      Options{});
  EXPECT_TRUE(violations(rep).empty());
  std::size_t suppressed = 0;
  for (const auto& f : rep.findings) suppressed += f.suppressed ? 1 : 0;
  EXPECT_EQ(suppressed, 1u);
}

TEST(LintConcurrency, SeededEngineInParallelRegionIsClean) {
  const auto rep = lint_content("f.cpp",
                                "void f(double* out, int n) {\n"
                                "#pragma omp parallel for\n"
                                "  for (int i = 0; i < n; ++i) {\n"
                                "    std::mt19937 gen(42u + i);\n"
                                "    out[i] = gen();\n"
                                "  }\n"
                                "}\n",
                                Options{});
  EXPECT_TRUE(violations(rep).empty());
}

// ---------------------------------------------------------------------------
// Cold annotations
// ---------------------------------------------------------------------------

TEST(LintCold, ColdLineSkipsHotContractChecks) {
  const auto rep = lint_content(
      "f.cpp",
      "void f(std::vector<int>& v) {\n"
      "  // eroof: hot-begin (cold-line fixture)\n"
      "  // eroof: cold (rebuild slow path, amortized)\n"
      "  v.push_back(1);\n"
      "  v.push_back(2);\n"
      "  // eroof: hot-end\n"
      "}\n",
      Options{});
  const auto v = violations(rep);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, 5);  // only the line without the barrier above it
}

TEST(LintCold, ColdExemptsAnOpenMPRegionFromFixAnnotations) {
  Options opt;
  opt.fix_annotations = true;
  const auto rep = lint_content(
      "f.cpp",
      "void f(double* out, int n) {\n"
      "  // eroof: cold (setup pass, allocates by design)\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < n; ++i) out[i] = i;\n"
      "}\n",
      opt);
  for (const auto& n : rep.notes)
    EXPECT_EQ(n.text.find("unannotated OpenMP"), std::string::npos) << n.text;
}

// ---------------------------------------------------------------------------
// Path policy
// ---------------------------------------------------------------------------

TEST(LintPolicy, RngAndTraceAreDeterminismExempt) {
  EXPECT_TRUE(determinism_exempt("src/util/rng.hpp"));
  EXPECT_TRUE(determinism_exempt("/root/repo/src/util/rng.hpp"));
  EXPECT_TRUE(determinism_exempt("src/trace/trace.cpp"));
  EXPECT_FALSE(determinism_exempt("src/core/fit.cpp"));
  EXPECT_FALSE(determinism_exempt("src/util/stats.cpp"));
}

TEST(LintPolicy, ExemptFilesMayReadClocks) {
  const auto rep = lint_content(
      "src/trace/trace.cpp",
      "auto t = std::chrono::high_resolution_clock::now();\n", Options{});
  EXPECT_TRUE(violations(rep).empty());
}

TEST(LintPolicy, HeaderDetection) {
  EXPECT_TRUE(is_header("a/b.hpp"));
  EXPECT_TRUE(is_header("a/b.h"));
  EXPECT_FALSE(is_header("a/b.cpp"));
}

TEST(LintPolicy, FixAnnotationsListsUnannotatedParallelRegions) {
  Options opt;
  opt.fix_annotations = true;
  const auto rep = lint_file(fixture("bad_determinism.cpp"), opt);
  bool noted = false;
  for (const auto& n : rep.notes)
    noted |= n.line == 34 &&
             n.text.find("unannotated OpenMP parallel region") !=
                 std::string::npos;
  EXPECT_TRUE(noted);
}

// ---------------------------------------------------------------------------
// The binary, end to end: exact exit codes and output format
// ---------------------------------------------------------------------------

struct RunResult {
  int exit_code = -1;
  std::string out;
};

RunResult run_lint(const std::string& args) {
  // Unique per process and test: ctest runs every discovered case in its own
  // process, concurrently under -j, all sharing one TempDir().
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string out_path =
      ::testing::TempDir() + "eroof_lint_out_" + std::to_string(getpid()) +
      "_" + info->test_suite_name() + "." + info->name() + ".txt";
  const std::string cmd = std::string(EROOF_LINT_BIN) + " " + args + " > " +
                          out_path + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  r.out = ss.str();
  std::remove(out_path.c_str());
  return r;
}

std::size_t count_lines_containing(const std::string& text,
                                   const std::string& needle) {
  std::size_t n = 0;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line))
    if (line.find(needle) != std::string::npos) ++n;
  return n;
}

TEST(LintBinary, CleanFileExitsZero) {
  const auto r = run_lint(fixture("clean.cpp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "");
}

TEST(LintBinary, ViolationsExitOneWithFileLineRuleFormat) {
  const auto r = run_lint(fixture("suppressed_pair.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  // Exactly one finding, at file:9, rule nondet-rand; the allowed call on
  // line 7 is absent.
  EXPECT_EQ(count_lines_containing(r.out, "suppressed_pair.cpp:"), 1u);
  EXPECT_EQ(count_lines_containing(
                r.out, fixture("suppressed_pair.cpp") + ":9: nondet-rand: "),
            1u);
}

TEST(LintBinary, AuditPrintsTheSuppressionTrail) {
  const auto r = run_lint("--audit " + fixture("suppressed_pair.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines_containing(
                r.out,
                fixture("suppressed_pair.cpp") + ":7: suppressed: nondet-rand"),
            1u);
}

TEST(LintBinary, FixtureDirectoryAggregatesAllSeededViolations) {
  const auto r = run_lint(std::string(EROOF_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1);
  // Every rule family fires somewhere in the fixtures.
  for (const char* rule :
       {"nondet-rand", "nondet-unordered-iter", "nondet-omp", "hot-alloc",
        "header-pragma-once", "header-using-namespace",
        "annotation-mismatch"})
    EXPECT_GE(count_lines_containing(r.out, std::string(": ") + rule + ": "),
              1u)
        << rule;
}

TEST(LintBinary, MissingPathExitsTwo) {
  const auto r = run_lint(fixture("no_such_file.cpp"));
  EXPECT_EQ(r.exit_code, 2);
}

TEST(LintBinary, RealTreeIsInvariantClean) {
  // The gate CI enforces: the project's own sources carry no violations.
  // EROOF_LINT_FIXTURES is <repo>/tests/lint/fixtures.
  const std::string repo_root =
      std::string(EROOF_LINT_FIXTURES) + "/../../..";
  const auto r = run_lint("--root " + repo_root);
  EXPECT_EQ(r.exit_code, 0) << r.out;
}

TEST(LintBinary, RealTreeHasNoStaleAllowsUnderStrict) {
  const std::string repo_root =
      std::string(EROOF_LINT_FIXTURES) + "/../../..";
  const auto r = run_lint("--strict-allows --root " + repo_root);
  EXPECT_EQ(r.exit_code, 0) << r.out;
}

TEST(LintBinary, BuildOnceCacheStaysFreeOfBlockingUnderLock) {
  // LruCache::get_or_build must make its trace::counter_add calls (each
  // acquires the process-wide trace mutex) after its critical section; this
  // gate fails if one moves back under the cache lock.
  const std::string cache =
      std::string(EROOF_LINT_FIXTURES) + "/../../../src/serve/cache.hpp";
  const auto r = run_lint(cache);
  EXPECT_EQ(count_lines_containing(r.out, "conc-blocking-under-lock"), 0u)
      << r.out;
}

}  // namespace
}  // namespace eroof::lint
