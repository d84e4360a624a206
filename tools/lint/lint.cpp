#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace eroof::lint {
namespace {

// ---------------------------------------------------------------------------
// Small lexical helpers
// ---------------------------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Finds `tok` in `code` as a whole word: the characters adjacent to the
/// match must not extend the identifier. `tok` itself may contain `::`.
bool has_token(std::string_view code, std::string_view tok) {
  std::size_t pos = 0;
  while ((pos = code.find(tok, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + tok.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// Finds a *call* of the free function `name`: the identifier followed by
/// `(` (spaces allowed), not preceded by an identifier character or by
/// member access (`.` / `->`). Qualified calls (`std::time(`) still match.
bool has_call(std::string_view code, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string_view::npos) {
    const std::size_t end = pos + name.size();
    std::size_t p = end;
    while (p < code.size() && code[p] == ' ') ++p;
    const bool is_call = p < code.size() && code[p] == '(';
    bool left_ok = pos == 0;
    if (pos > 0) {
      const char c = code[pos - 1];
      left_ok = !ident_char(c) && c != '.' &&
                !(c == '>' && pos >= 2 && code[pos - 2] == '-');
    }
    if (is_call && left_ok) return true;
    pos += 1;
  }
  return false;
}

/// True if `code` contains `member(` called on something (preceded by an
/// identifier char, `]`, or `)` then `.` or `->`). Used for the container
/// grow checks, where we only care that *some* object grows.
bool has_member_call(std::string_view code, std::string_view member) {
  std::size_t pos = 0;
  const std::string needle = std::string(".") + std::string(member);
  while ((pos = code.find(needle, pos)) != std::string_view::npos) {
    std::size_t p = pos + needle.size();
    while (p < code.size() && code[p] == ' ') ++p;
    if (p < code.size() && code[p] == '(') return true;
    pos += 1;
  }
  return false;
}

/// Position of the first `.member(` match, or npos. Like has_member_call but
/// positional, for the ordering checks in the lock-scope tracker.
std::size_t find_member_call(std::string_view code, std::string_view member,
                             std::size_t from = 0) {
  const std::string needle = std::string(".") + std::string(member);
  std::size_t pos = from;
  while ((pos = code.find(needle, pos)) != std::string_view::npos) {
    std::size_t p = pos + needle.size();
    while (p < code.size() && code[p] == ' ') ++p;
    if (p < code.size() && code[p] == '(') return pos;
    pos += 1;
  }
  return std::string_view::npos;
}

/// Position of the first whole-word occurrence of `tok`, or npos.
std::size_t find_token(std::string_view code, std::string_view tok,
                       std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = code.find(tok, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + tok.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string_view::npos;
}

std::string trimmed(std::string_view s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return std::string();
  const auto e = s.find_last_not_of(" \t");
  return std::string(s.substr(b, e - b + 1));
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

struct Annotations {
  bool hot_begin = false;
  bool hot_end = false;
  bool cold = false;
  std::vector<std::string> allows;  // rule ids from allow(...)
};

Annotations parse_annotations(std::string_view comment) {
  Annotations a;
  // Region markers: "eroof: hot-begin" / "eroof: hot-end" (an optional
  // "(label)" after hot-begin is tolerated and ignored), and the
  // "eroof: cold (reason)" propagation barrier.
  std::size_t pos = 0;
  while ((pos = comment.find("eroof:", pos)) != std::string_view::npos) {
    std::size_t p = pos + 6;
    while (p < comment.size() && comment[p] == ' ') ++p;
    if (comment.compare(p, 9, "hot-begin") == 0)
      a.hot_begin = true;
    else if (comment.compare(p, 7, "hot-end") == 0)
      a.hot_end = true;
    else if (comment.compare(p, 4, "cold") == 0 &&
             (p + 4 >= comment.size() || !ident_char(comment[p + 4])))
      a.cold = true;
    pos = p;
  }
  // Suppressions: "eroof-lint: allow(rule[, rule...])".
  pos = 0;
  while ((pos = comment.find("eroof-lint:", pos)) != std::string_view::npos) {
    std::size_t p = pos + 11;
    while (p < comment.size() && comment[p] == ' ') ++p;
    if (comment.compare(p, 6, "allow(") == 0) {
      const std::size_t open = p + 6;
      const std::size_t close = comment.find(')', open);
      if (close != std::string_view::npos) {
        std::string list(comment.substr(open, close - open));
        std::stringstream ss(list);
        std::string id;
        while (std::getline(ss, id, ',')) {
          const auto b = id.find_first_not_of(" \t");
          const auto e = id.find_last_not_of(" \t");
          if (b != std::string::npos)
            a.allows.push_back(id.substr(b, e - b + 1));
        }
      }
    }
    pos += 11;
  }
  return a;
}

// ---------------------------------------------------------------------------
// Declaration collection (unordered containers, futures)
// ---------------------------------------------------------------------------

/// Skips a balanced template argument list starting at the `<` at `pos`.
/// Returns the index one past the matching `>`, or npos if unbalanced.
std::size_t skip_template_args(std::string_view code, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

/// Names of variables/members declared as `kw<...>` for any of the given
/// template names, anywhere in the (comment-stripped, newline-joined) file.
std::vector<std::string> template_decls(
    std::string_view code, std::initializer_list<std::string_view> kws) {
  std::vector<std::string> names;
  for (const std::string_view kw : kws) {
    std::size_t pos = 0;
    while ((pos = code.find(kw, pos)) != std::string_view::npos) {
      const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
      std::size_t p = pos + kw.size();
      pos += 1;
      if (!left_ok) continue;
      while (p < code.size() && code[p] == ' ') ++p;
      if (p >= code.size() || code[p] != '<') continue;
      p = skip_template_args(code, p - 0);
      if (p == std::string_view::npos) continue;
      while (p < code.size() &&
             (code[p] == ' ' || code[p] == '&' || code[p] == '\n'))
        ++p;
      std::size_t b = p;
      while (p < code.size() && ident_char(code[p])) ++p;
      if (p > b) names.emplace_back(code.substr(b, p - b));
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// Does this line iterate one of the declared unordered containers? Matches
/// range-for (`for (... : name)`) and explicit `name.begin()` / `name.end()`
/// / c-variants.
bool iterates_name(std::string_view code, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (!left_ok || !right_ok) {
      pos += 1;
      continue;
    }
    // name.begin() etc.
    for (const std::string_view m : {"begin", "end", "cbegin", "cend"}) {
      std::string_view rest = code.substr(end);
      if (rest.size() > m.size() + 1 && rest[0] == '.' &&
          rest.compare(1, m.size(), m) == 0 && rest[m.size() + 1] == '(')
        return true;
    }
    // Range-for: "... : name)". Look left for ':' that is not '::'.
    std::size_t q = pos;
    while (q > 0 && code[q - 1] == ' ') --q;
    if (q > 0 && code[q - 1] == ':' && (q < 2 || code[q - 2] != ':'))
      return true;
    pos += 1;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The rule table
// ---------------------------------------------------------------------------

struct RuleDoc {
  const char* id;
  const char* doc;
};

const RuleDoc kRules[] = {
    {"nondet-rand",
     "Unseeded/wall-clock entropy source or unspecified std::hash seed "
     "outside util::Rng / util::RngStream / util::fnv1a64"},
    {"nondet-unordered-iter",
     "Iteration over a std::unordered container (hash-order dependent)"},
    {"nondet-omp",
     "OpenMP critical/atomic/reduction may reorder floating-point "
     "accumulation"},
    {"hot-alloc",
     "Heap allocation, container growth, or thread spawn inside (or reachable "
     "from) a // eroof: hot region"},
    {"hot-lock",
     "Mutex acquisition inside (or reachable from) a // eroof: hot region"},
    {"conc-blocking-under-lock",
     "Blocking call (condition wait, future::get, sleep, I/O, trace-registry "
     "emission) while holding a mutex"},
    {"conc-detached-thread",
     "Detached std::thread outlives its owner and races shutdown"},
    {"relaxed-atomic",
     "Explicit std::memory_order_relaxed without an // eroof-lint: "
     "allow(relaxed-atomic) audit"},
    {"conc-unseeded-rng",
     "Default-constructed RNG engine inside an OpenMP parallel region (every "
     "thread gets the same stream)"},
    {"header-pragma-once", "Header is missing #pragma once"},
    {"header-using-namespace", "using-directive at namespace scope in a header"},
    {"annotation-mismatch", "Unbalanced // eroof: hot-begin / hot-end markers"},
    {"stale-allow",
     "allow() suppression that matched no finding (gating under "
     "--strict-allows)"},
};

const std::vector<std::string> kRuleIds = [] {
  std::vector<std::string> ids;
  for (const auto& r : kRules) ids.emplace_back(r.id);
  return ids;
}();

struct BannedCall {
  const char* pattern;
  bool call_only;  // must be followed by '(' and not be a member access
  const char* what;
};

// Determinism: seeded util::Rng / util::RngStream are the only sanctioned
// entropy sources; wall-clock reads belong to src/trace/ alone. std::hash
// values are implementation-defined, so seeds derived from them differ
// across standard libraries; util::fnv1a64 is the specified replacement.
const BannedCall kNondetCalls[] = {
    {"std::rand", false, "std::rand() (unseeded C RNG)"},
    {"rand", true, "rand() (unseeded C RNG)"},
    {"srand", true, "srand() (global RNG seeding)"},
    {"random_device", false, "std::random_device (nondeterministic entropy)"},
    {"time", true, "time() (wall-clock read)"},
    {"high_resolution_clock", false,
     "std::chrono::high_resolution_clock (unspecified, possibly non-steady "
     "clock)"},
    {"std::hash", false,
     "std::hash (implementation-defined value; key seeds with util::fnv1a64)"},
};

struct HotAlloc {
  const char* pattern;
  bool member_call;  // match as ".pattern(" on some object
  const char* what;
};

const HotAlloc kHotAllocs[] = {
    {"new", false, "operator new"},
    {"std::make_unique", false, "std::make_unique (operator new)"},
    {"std::make_shared", false, "std::make_shared (operator new)"},
    {"std::function", false, "std::function (type-erased callable may "
                             "heap-allocate)"},
    {"std::string", false, "std::string construction"},
    {"push_back", true, "container grow (push_back)"},
    {"emplace_back", true, "container grow (emplace_back)"},
    {"resize", true, "container grow (resize)"},
    {"reserve", true, "container grow (reserve)"},
    {"insert", true, "container grow (insert)"},
    {"emplace", true, "container grow (emplace)"},
    {"append", true, "container grow (append)"},
    // Thread spawns: a serving worker's steady-state loop must reuse the
    // pool it was given, never create threads per request.
    {"std::thread", false, "std::thread construction (OS thread spawn)"},
    {"std::async", false, "std::async (thread spawn + shared-state "
                          "allocation)"},
};

// Lock acquisitions that make a hot region (or a function reachable from
// one) contend with other threads: RAII guard construction and explicit
// mutex .lock() calls.
struct HotLock {
  const char* pattern;
  bool member_call;
  const char* what;
};

const HotLock kHotLocks[] = {
    {"std::lock_guard", false, "std::lock_guard acquisition"},
    {"std::unique_lock", false, "std::unique_lock acquisition"},
    {"std::scoped_lock", false, "std::scoped_lock acquisition"},
    {"std::shared_lock", false, "std::shared_lock acquisition"},
    {"lock", true, "explicit .lock() acquisition"},
};

// Default-constructible standard RNG engines for the conc-unseeded-rng rule.
const char* const kRngEngines[] = {
    "mt19937",      "mt19937_64",           "minstd_rand", "minstd_rand0",
    "ranlux24",     "ranlux48",             "knuth_b",     "ranlux24_base",
    "ranlux48_base", "default_random_engine",
};

/// If `code` default-constructs one of the standard RNG engines
/// (`std::mt19937 g;`, `g()`, or `g{}`), returns the engine name; else "".
std::string unseeded_engine(std::string_view code) {
  for (const char* eng : kRngEngines) {
    std::size_t pos = find_token(code, eng);
    if (pos == std::string_view::npos) continue;
    std::size_t p = pos + std::string_view(eng).size();
    while (p < code.size() && code[p] == ' ') ++p;
    // Variable name.
    std::size_t b = p;
    while (p < code.size() && ident_char(code[p])) ++p;
    if (p == b) continue;  // not a declaration (e.g. a cast or using-decl)
    while (p < code.size() && code[p] == ' ') ++p;
    if (p >= code.size() || code[p] == ';') return eng;
    if (code[p] == '(' || code[p] == '{') {
      const char close = code[p] == '(' ? ')' : '}';
      std::size_t q = p + 1;
      while (q < code.size() && code[q] == ' ') ++q;
      if (q < code.size() && code[q] == close) return eng;
    }
  }
  return std::string();
}

// Blocking operations for the mutex-held-across-blocking-call rule. The
// trace-registry emitters count as blocking: they acquire the process-wide
// trace mutex, so calling them under another lock nests two locks and
// serializes every tracing thread behind the caller's critical section.
struct BlockingOp {
  const char* pattern;
  enum Kind { Member, Call, Token } kind;
  const char* what;
};

const BlockingOp kBlockingOps[] = {
    {"wait", BlockingOp::Member, "condition/future wait"},
    {"wait_for", BlockingOp::Member, "condition/future timed wait"},
    {"wait_until", BlockingOp::Member, "condition/future timed wait"},
    {"join", BlockingOp::Member, "thread join"},
    {"sleep_for", BlockingOp::Call, "thread sleep"},
    {"sleep_until", BlockingOp::Call, "thread sleep"},
    {"getline", BlockingOp::Call, "stream input"},
    {"printf", BlockingOp::Call, "stdio output"},
    {"fprintf", BlockingOp::Call, "stdio output"},
    {"fwrite", BlockingOp::Call, "stdio output"},
    {"fflush", BlockingOp::Call, "stdio flush"},
    {"system", BlockingOp::Call, "process spawn"},
    {"std::cout", BlockingOp::Token, "iostream output"},
    {"std::cerr", BlockingOp::Token, "iostream output"},
    {"std::cin", BlockingOp::Token, "iostream input"},
    {"counter_add", BlockingOp::Call, "trace-registry emission (acquires the "
                                      "process-wide trace mutex)"},
    {"emit_span", BlockingOp::Call, "trace-registry emission (acquires the "
                                    "process-wide trace mutex)"},
    {"emit_counter", BlockingOp::Call, "trace-registry emission (acquires "
                                       "the process-wide trace mutex)"},
};

/// The first RAII lock-guard declaration on a line: its position (npos when
/// there is none) and the guard variable's name.
struct GuardDecl {
  std::size_t pos = std::string::npos;
  std::string var;
};

GuardDecl find_guard_decl(std::string_view code) {
  GuardDecl d;
  for (const auto& g : {"std::lock_guard", "std::unique_lock",
                        "std::scoped_lock", "std::shared_lock"}) {
    const std::size_t pos = find_token(code, g);
    if (pos == std::string::npos) continue;
    if (d.pos == std::string::npos || pos < d.pos) {
      d.pos = pos;
      // Variable name: after the type (and optional template args).
      std::size_t p = pos + std::string_view(g).size();
      if (p < code.size() && code[p] == '<') {
        const std::size_t q = skip_template_args(code, p);
        if (q != std::string::npos) p = q;
      }
      while (p < code.size() && code[p] == ' ') ++p;
      const std::size_t b = p;
      while (p < code.size() && ident_char(code[p])) ++p;
      d.var = std::string(code.substr(b, p - b));
    }
  }
  return d;
}

/// Brace depth at `pos` on a line that starts at depth `depth`.
int depth_at(std::string_view code, std::size_t pos, int depth) {
  for (std::size_t k = 0; k < pos && k < code.size(); ++k) {
    if (code[k] == '{') ++depth;
    if (code[k] == '}') --depth;
  }
  return depth;
}

/// Lock scopes for conc-blocking-under-lock, fed one line at a time. A scope
/// opens at a RAII guard declaration and closes when brace depth drops
/// below the depth at the declaration. An explicit `var.unlock()` releases
/// it until the block holding the unlock closes -- an unlock inside a
/// branch releases that branch only, because the path that skips the
/// branch still holds the lock -- or until `var.lock()` re-acquires it
/// (std::unique_lock round trip).
class LockScopes {
 public:
  bool held() const {
    for (const auto& s : scopes_)
      if (s.active) return true;
    return false;
  }

  /// Declaration line of the innermost held scope (0 when none is held).
  int held_since() const {
    int line = 0;
    for (const auto& s : scopes_)
      if (s.active) line = s.decl_line;
    return line;
  }

  /// Applies the line's unlock()/lock() calls; `depth` is the brace depth
  /// at the start of the line.
  void release_and_reacquire(std::string_view code, int depth) {
    const std::size_t upos = find_member_call(code, "unlock");
    if (upos != std::string::npos) {
      const std::string var = receiver(code, upos);
      LockScope* hit = nullptr;
      for (auto it = scopes_.rbegin(); it != scopes_.rend() && !hit; ++it)
        if (it->active && (it->var == var || var.empty())) hit = &*it;
      if (!hit && !scopes_.empty()) hit = &scopes_.back();
      if (hit) {
        hit->active = false;
        hit->released_depth = depth_at(code, upos, depth);
      }
    }
    const std::size_t lpos = find_member_call(code, "lock");
    if (lpos != std::string::npos) {
      const std::string var = receiver(code, lpos);
      for (auto& s : scopes_)
        if (!s.active && s.var == var && !var.empty()) s.active = true;
    }
  }

  void open(int line, int depth_at_decl, std::string var) {
    scopes_.push_back(LockScope{line, depth_at_decl, std::move(var), true, 0});
  }

  /// A block closed, leaving brace depth `depth`: scopes declared inside it
  /// end, and unlocks made inside it stop covering what follows.
  void close_to(int depth) {
    scopes_.erase(std::remove_if(scopes_.begin(), scopes_.end(),
                                 [&](const LockScope& s) {
                                   return s.depth > depth;
                                 }),
                  scopes_.end());
    for (auto& s : scopes_)
      if (!s.active && s.released_depth > depth) s.active = true;
  }

 private:
  struct LockScope {
    int decl_line;
    int depth;  // brace depth at the declaration
    std::string var;
    bool active;
    int released_depth;  // brace depth at the releasing unlock()
  };

  static std::string receiver(std::string_view code, std::size_t call) {
    std::size_t b = call;
    while (b > 0 && ident_char(code[b - 1])) --b;
    return std::string(code.substr(b, call - b));
  }

  std::vector<LockScope> scopes_;
};

}  // namespace

const std::vector<std::string>& rule_ids() { return kRuleIds; }

std::vector<PatternHit> hot_contract_hits(std::string_view code,
                                          bool det_exempt) {
  std::vector<PatternHit> hits;
  for (const auto& h : kHotAllocs) {
    const bool hit = h.member_call ? has_member_call(code, h.pattern)
                                   : has_token(code, h.pattern);
    if (hit) hits.push_back(PatternHit{"hot-alloc", h.what});
  }
  for (const auto& h : kHotLocks) {
    const bool hit = h.member_call ? has_member_call(code, h.pattern)
                                   : has_token(code, h.pattern);
    if (hit) hits.push_back(PatternHit{"hot-lock", h.what});
  }
  if (!det_exempt) {
    for (const auto& b : kNondetCalls) {
      const bool hit = b.call_only ? has_call(code, b.pattern)
                                   : has_token(code, b.pattern);
      if (hit) hits.push_back(PatternHit{"nondet-rand", b.what});
    }
  }
  return hits;
}

std::string_view rule_description(std::string_view rule) {
  for (const auto& r : kRules)
    if (rule == r.id) return r.doc;
  return "";
}

bool determinism_exempt(std::string_view path) {
  const std::string p = [&] {
    std::string s(path);
    std::replace(s.begin(), s.end(), '\\', '/');
    return s;
  }();
  if (p.find("src/trace/") != std::string::npos) return true;
  const std::string_view rng = "util/rng.hpp";
  return p.size() >= rng.size() &&
         p.compare(p.size() - rng.size(), rng.size(), rng) == 0;
}

bool is_header(std::string_view path) {
  for (const std::string_view ext : {".hpp", ".h", ".hh"}) {
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Line scanner
// ---------------------------------------------------------------------------

std::vector<ScannedLine> scan_lines(std::string_view content) {
  enum class State { Normal, LineComment, BlockComment, Str, Chr, RawStr };
  std::vector<ScannedLine> lines;
  ScannedLine cur;
  State st = State::Normal;
  std::string raw_delim;  // for RawStr: the ")delim\"" terminator
  // Inside a /* */ block, text after a nested `//` is commented-out comment
  // text (e.g. a disabled `// eroof: hot-begin`); it must not reach the
  // annotation parser. The suppression ends at the next newline.
  bool block_nested_line = false;

  const auto newline = [&](bool spliced_comment) {
    lines.push_back(cur);
    cur = ScannedLine{};
    block_nested_line = false;
    if (st == State::LineComment && !spliced_comment) st = State::Normal;
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\n') {
      // A backslash immediately before the newline splices the lines: a
      // spliced // comment swallows the next source line too.
      const bool spliced = st == State::LineComment && i > 0 &&
                           content[i - 1] == '\\';
      newline(spliced);
      continue;
    }
    switch (st) {
      case State::Normal: {
        const char next = i + 1 < content.size() ? content[i + 1] : '\0';
        if (c == '/' && next == '/') {
          st = State::LineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::BlockComment;
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for R (optionally preceded by u8/u/L/U)
          // with no identifier char before the prefix.
          bool raw = false;
          if (i > 0 && content[i - 1] == 'R') {
            std::size_t b = i - 1;
            if (b > 0 && (content[b - 1] == 'u' || content[b - 1] == 'U' ||
                          content[b - 1] == 'L'))
              --b;
            if (b > 1 && content[b - 1] == '8' && content[b - 2] == 'u')
              b -= 2;
            raw = b == 0 || !ident_char(content[b - 1]);
          }
          if (raw) {
            std::size_t p = i + 1;
            std::string d;
            while (p < content.size() && content[p] != '(' &&
                   content[p] != '\n')
              d += content[p++];
            if (p >= content.size() || content[p] != '(') {
              // Ill-formed raw-string opener (newline or EOF before the
              // '('). Degrade to an ordinary string so line numbers stay in
              // sync instead of silently swallowing the newline.
              st = State::Str;
              cur.code += '"';
            } else {
              raw_delim = ")" + d + "\"";
              st = State::RawStr;
              cur.code += '"';
              i = p;  // at the '('; loop ++i moves past it
            }
          } else {
            st = State::Str;
            cur.code += '"';
          }
        } else if (c == '\'') {
          st = State::Chr;
          cur.code += '\'';
        } else {
          cur.code += c;
        }
        break;
      }
      case State::LineComment:
        cur.comment += c;
        break;
      case State::BlockComment: {
        const char next = i + 1 < content.size() ? content[i + 1] : '\0';
        if (c == '*' && next == '/') {
          st = State::Normal;
          cur.code += ' ';  // separate tokens the comment was between
          block_nested_line = false;
          ++i;
        } else if (c == '/' && next == '/') {
          block_nested_line = true;
          cur.comment += ' ';
          ++i;
        } else if (!block_nested_line) {
          cur.comment += c;
        }
        break;
      }
      case State::Str:
        if (c == '\\') {
          if (i + 1 < content.size() && content[i + 1] == '\n') {
            // Escaped newline inside a string literal: the literal continues
            // but the *source* line ends here -- keep line numbers in sync.
            lines.push_back(cur);
            cur = ScannedLine{};
            block_nested_line = false;
          }
          ++i;  // skip the escaped char
        } else if (c == '"') {
          st = State::Normal;
          cur.code += '"';
        }
        break;
      case State::Chr:
        if (c == '\\') {
          if (i + 1 < content.size() && content[i + 1] == '\n') {
            lines.push_back(cur);
            cur = ScannedLine{};
            block_nested_line = false;
          }
          ++i;
        } else if (c == '\'') {
          st = State::Normal;
          cur.code += '\'';
        }
        break;
      case State::RawStr:
        if (c == ')' &&
            content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = State::Normal;
          cur.code += '"';
        }
        break;
    }
  }
  if (!cur.code.empty() || !cur.comment.empty()) lines.push_back(cur);
  return lines;
}

// ---------------------------------------------------------------------------
// SourceFile loading
// ---------------------------------------------------------------------------

SourceFile load_source(const std::string& display_path,
                       std::string_view content) {
  SourceFile sf;
  sf.path = display_path;
  sf.lines = scan_lines(content);
  sf.header = is_header(display_path);
  sf.det_exempt = determinism_exempt(display_path);
  sf.info.resize(sf.lines.size());
  for (std::size_t li = 0; li < sf.lines.size(); ++li) {
    const Annotations a = parse_annotations(sf.lines[li].comment);
    sf.info[li].hot_begin = a.hot_begin;
    sf.info[li].hot_end = a.hot_end;
    sf.info[li].cold = a.cold;
    sf.info[li].allows = a.allows;
    sf.info[li].comment_only =
        sf.lines[li].code.find_first_not_of(" \t") == std::string::npos;
  }
  // Hot ranges: both marker lines are inside the region; a nested hot-begin
  // continues the open region (and is reported as annotation-mismatch by the
  // rule pass); an unclosed region extends to the last line.
  int open = 0;
  for (std::size_t li = 0; li < sf.lines.size(); ++li) {
    if (sf.info[li].hot_begin && open == 0) open = static_cast<int>(li) + 1;
    if (sf.info[li].hot_end && open != 0) {
      sf.hot_ranges.push_back(HotRange{open, static_cast<int>(li) + 1});
      open = 0;
    }
  }
  if (open != 0)
    sf.hot_ranges.push_back(
        HotRange{open, static_cast<int>(sf.lines.size())});
  return sf;
}

bool load_source_file(const std::string& path, SourceFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.path = path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = load_source(path, ss.str());
  return true;
}

// ---------------------------------------------------------------------------
// FileAnalysis: per-file rule pass + shared emission machinery
// ---------------------------------------------------------------------------

void FileAnalysis::emit(int line, const std::string& rule,
                        const std::string& message) {
  // One finding per (line, rule): `srand(time(0))` is one nondet-rand
  // violation, not two, which keeps counts stable for tests and humans.
  // The call-graph layer shares the dedupe: a lexical in-region finding
  // wins over a later transitive finding for the same line.
  for (const auto& prev : report_.findings)
    if (prev.line == line && prev.rule == rule) return;
  Finding f{sf_.path, line, rule, message, false, std::string()};
  const std::size_t li = static_cast<std::size_t>(line) - 1;
  if (li < sf_.lines.size()) f.context = trimmed(sf_.lines[li].code);
  const auto mark_used = [&](int at, const std::string& r) {
    for (auto& pa : allows_)
      if (pa.line == at && pa.rule == r) pa.used = true;
  };
  if (li < sf_.info.size()) {
    for (const auto& id : sf_.info[li].allows) {
      if (id == rule) {
        f.suppressed = true;
        mark_used(line, rule);
        break;
      }
    }
    // Walk up through the contiguous comment-only block above the line:
    // a multi-line justification can carry its allow() on any of its lines.
    for (std::size_t j = li;
         !f.suppressed && j > 0 && sf_.info[j - 1].comment_only; --j) {
      for (const auto& id : sf_.info[j - 1].allows) {
        if (id == rule) {
          f.suppressed = true;
          mark_used(static_cast<int>(j), rule);
          break;
        }
      }
    }
  }
  report_.findings.push_back(std::move(f));
}

bool FileAnalysis::cold_at(int line) const {
  const std::size_t li = static_cast<std::size_t>(line) - 1;
  if (li >= sf_.info.size()) return false;
  if (sf_.info[li].cold) return true;
  for (std::size_t j = li; j > 0 && sf_.info[j - 1].comment_only; --j)
    if (sf_.info[j - 1].cold) return true;
  return false;
}

void FileAnalysis::finalize() {
  // Audit: allow() annotations that suppressed nothing are stale and erode
  // trust in the ones that matter.
  for (const auto& pa : allows_) {
    if (!pa.used)
      report_.notes.push_back(Note{sf_.path, pa.line,
                                   "unused suppression: allow(" + pa.rule +
                                       ") matched no finding"});
    bool known = false;
    for (const auto& id : kRuleIds) known = known || id == pa.rule;
    if (!known)
      report_.notes.push_back(
          Note{sf_.path, pa.line, "unknown rule id in allow(" + pa.rule + ")"});
  }
}

FileAnalysis::FileAnalysis(SourceFile sf, const Options& opt)
    : sf_(std::move(sf)) {
  for (std::size_t li = 0; li < sf_.info.size(); ++li)
    for (const auto& id : sf_.info[li].allows)
      allows_.push_back(AllowSite{static_cast<int>(li) + 1, id, false});

  const std::vector<ScannedLine>& lines = sf_.lines;

  // Joined code (newline-separated) for declarations that span lines.
  std::string joined;
  for (const auto& l : lines) {
    joined += l.code;
    joined += '\n';
  }
  const std::vector<std::string> unordered =
      template_decls(joined, {"unordered_map", "unordered_set"});
  const std::vector<std::string> futures =
      template_decls(joined, {"future", "shared_future"});

  bool in_hot = false;
  int hot_begin_line = 0;
  bool saw_pragma_once = false;

  LockScopes lock_scopes;
  int brace_depth = 0;

  // OpenMP parallel-region tracking for conc-unseeded-rng: the pragma
  // applies to the next block; the region spans until depth returns to the
  // depth at its opening brace.
  bool omp_pending = false;
  std::vector<int> omp_regions;  // stack of depths at region entry

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const int ln = static_cast<int>(li) + 1;
    const std::string& code = lines[li].code;
    const LineInfo& ann = sf_.info[li];

    // -- annotation bookkeeping ------------------------------------------
    if (ann.hot_begin) {
      if (in_hot)
        emit(ln, "annotation-mismatch",
             "hot-begin inside a hot region opened at line " +
                 std::to_string(hot_begin_line));
      in_hot = true;
      hot_begin_line = ln;
    }

    // Merge pragma continuation lines (backslash splices) so clauses on the
    // continuation are seen as part of the directive.
    std::string pragma_code = code;
    {
      std::size_t look = li;
      while (!pragma_code.empty() && pragma_code.back() == '\\' &&
             look + 1 < lines.size()) {
        pragma_code.pop_back();
        ++look;
        pragma_code += lines[look].code;
      }
    }
    const bool is_omp_pragma =
        pragma_code.find("#pragma") != std::string::npos &&
        has_token(pragma_code, "omp");

    // -- determinism ------------------------------------------------------
    if (!sf_.det_exempt) {
      for (const auto& b : kNondetCalls) {
        const bool hit = b.call_only ? has_call(code, b.pattern)
                                     : has_token(code, b.pattern);
        if (hit)
          emit(ln, "nondet-rand",
               std::string(b.what) +
                   " -- draw from util::Rng / util::RngStream instead");
      }
      for (const auto& name : unordered) {
        if (iterates_name(code, name))
          emit(ln, "nondet-unordered-iter",
               "iteration over std::unordered container '" + name +
                   "' -- order is hash/library dependent; iterate a sorted "
                   "or insertion-ordered view instead");
      }
      if (is_omp_pragma &&
          (has_token(pragma_code, "critical") ||
           has_token(pragma_code, "atomic") ||
           pragma_code.find("reduction") != std::string::npos)) {
        emit(ln, "nondet-omp",
             "OpenMP critical/atomic/reduction can reorder floating-point "
             "accumulation across threads -- justify with "
             "// eroof-lint: allow(nondet-omp) if the ordering is provably "
             "fixed (e.g. simd-only reduction)");
      }
    }

    // -- hot-path allocation and locking ---------------------------------
    // The hot-begin line itself is inside the region; the hot-end line is
    // checked too (an allocation cannot share a line with hot-end in
    // practice, and including it keeps the region definition simple). A
    // cold barrier on the line (or the comment block above it) exempts it,
    // mirroring how the transitive pass treats cold lines in hot bodies.
    if (in_hot && !cold_at(ln)) {
      for (const auto& h : kHotAllocs) {
        const bool hit = h.member_call ? has_member_call(code, h.pattern)
                                       : has_token(code, h.pattern);
        if (hit)
          emit(ln, "hot-alloc",
               std::string(h.what) + " inside // eroof: hot region opened "
                                     "at line " +
                   std::to_string(hot_begin_line));
      }
      for (const auto& h : kHotLocks) {
        const bool hit = h.member_call ? has_member_call(code, h.pattern)
                                       : has_token(code, h.pattern);
        if (hit)
          emit(ln, "hot-lock",
               std::string(h.what) + " inside // eroof: hot region opened "
                                     "at line " +
                   std::to_string(hot_begin_line) +
                   " -- steady-state phase loops must not contend on locks");
      }
    }

    // -- concurrency discipline ------------------------------------------
    if (has_member_call(code, "detach"))
      emit(ln, "conc-detached-thread",
           "detached thread outlives its owner and races shutdown -- join "
           "it or hand it to a worker pool");

    if (has_token(code, "memory_order_relaxed"))
      emit(ln, "relaxed-atomic",
           "explicit memory_order_relaxed -- audit required: justify with "
           "// eroof-lint: allow(relaxed-atomic) why unordered access is "
           "safe here");

    if (!omp_regions.empty()) {
      const std::string eng = unseeded_engine(code);
      if (!eng.empty())
        emit(ln, "conc-unseeded-rng",
             "default-constructed std::" + eng +
                 " inside an OpenMP parallel region gives every thread an "
                 "identical stream -- derive a per-thread stream from "
                 "util::RngStream instead");
    }

    // Blocking calls while a lock scope is active. Scopes declared earlier
    // on the same line count if the declaration precedes the blocking call.
    {
      const GuardDecl decl = find_guard_decl(code);
      const std::size_t decl_pos = decl.pos;
      const bool scope_active_at_entry = lock_scopes.held();

      for (const auto& op : kBlockingOps) {
        std::size_t pos = std::string::npos;
        switch (op.kind) {
          case BlockingOp::Member:
            pos = find_member_call(code, op.pattern);
            break;
          case BlockingOp::Call: {
            if (has_call(code, op.pattern)) pos = code.find(op.pattern);
            break;
          }
          case BlockingOp::Token:
            pos = find_token(code, op.pattern);
            break;
        }
        if (pos == std::string::npos) continue;
        const bool under_lock =
            scope_active_at_entry ||
            (decl_pos != std::string::npos && decl_pos < pos);
        if (!under_lock) continue;
        const int at = scope_active_at_entry ? lock_scopes.held_since() : ln;
        emit(ln, "conc-blocking-under-lock",
             std::string(op.what) + " while holding a mutex (lock acquired "
                                    "at line " +
                 std::to_string(at) +
                 ") -- blocking under a lock stalls every contending "
                 "thread; move it outside the critical section");
      }

      lock_scopes.release_and_reacquire(code, brace_depth);

      // Open the scope after the checks: its own declaration line was
      // handled positionally above.
      if (decl_pos != std::string::npos)
        lock_scopes.open(ln, depth_at(code, decl_pos, brace_depth), decl.var);
    }

    // -- brace depth / scope maintenance ---------------------------------
    for (const char ch : code) {
      if (ch == '{') {
        ++brace_depth;
        if (omp_pending) {
          omp_regions.push_back(brace_depth);
          omp_pending = false;
        }
      }
      if (ch == '}') {
        while (!omp_regions.empty() && omp_regions.back() == brace_depth)
          omp_regions.pop_back();
        --brace_depth;
        lock_scopes.close_to(brace_depth);
      }
    }

    // -- header hygiene ---------------------------------------------------
    if (sf_.header) {
      if (code.find("#pragma") != std::string::npos &&
          has_token(code, "once"))
        saw_pragma_once = true;
      if (code.find("using namespace") != std::string::npos)
        emit(ln, "header-using-namespace",
             "using-directive in a header leaks into every includer");
    }

    // -- --fix-annotations ------------------------------------------------
    if (opt.fix_annotations && is_omp_pragma && !in_hot &&
        has_token(pragma_code, "parallel") && !cold_at(ln)) {
      report_.notes.push_back(
          Note{sf_.path, ln,
               "unannotated OpenMP parallel region -- wrap the phase loop "
               "in // eroof: hot-begin / // eroof: hot-end if it must not "
               "allocate, or mark it // eroof: cold (reason) if it may"});
    }

    if (is_omp_pragma && has_token(pragma_code, "parallel"))
      omp_pending = true;

    if (ann.hot_end) {
      if (!in_hot)
        emit(ln, "annotation-mismatch",
             "hot-end without a matching hot-begin");
      in_hot = false;
    }
  }

  if (in_hot) {
    emit(hot_begin_line, "annotation-mismatch",
         "hot-begin never closed (missing // eroof: hot-end)");
  }
  if (sf_.header && !saw_pragma_once && !lines.empty()) {
    // Attach to line 1; a first-line allow() can suppress for generated
    // headers.
    emit(1, "header-pragma-once", "header is missing #pragma once");
  }

  // Collect futures' names for the Member .get() blocking check. Done as a
  // second pass so a member declared below its use still counts.
  if (!futures.empty()) {
    LockScopes scopes2;
    int depth2 = 0;
    for (std::size_t li = 0; li < lines.size(); ++li) {
      const int ln = static_cast<int>(li) + 1;
      const std::string& code = lines[li].code;
      const bool active = scopes2.held();
      const GuardDecl decl = find_guard_decl(code);
      const std::size_t decl_pos = decl.pos;
      if (active || decl_pos != std::string::npos) {
        for (const auto& name : futures) {
          const std::size_t npos_ = find_token(code, name);
          if (npos_ == std::string::npos) continue;
          const std::size_t gpos = find_member_call(code, "get", npos_);
          if (gpos == npos_ + name.size() &&
              (active ||
               (decl_pos != std::string::npos && decl_pos < gpos))) {
            const int at = active ? scopes2.held_since() : ln;
            emit(ln, "conc-blocking-under-lock",
                 "future::get on '" + name +
                     "' while holding a mutex (lock acquired at line " +
                     std::to_string(at) +
                     ") -- blocking under a lock stalls every contending "
                     "thread; move it outside the critical section");
          }
        }
      }
      scopes2.release_and_reacquire(code, depth2);
      if (decl_pos != std::string::npos)
        scopes2.open(ln, depth_at(code, decl_pos, depth2), decl.var);
      for (const char ch : code) {
        if (ch == '{') ++depth2;
        if (ch == '}') scopes2.close_to(--depth2);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Back-compat single-file entry points
// ---------------------------------------------------------------------------

FileReport lint_content(const std::string& display_path,
                        std::string_view content, const Options& opt) {
  FileAnalysis fa(load_source(display_path, content), opt);
  fa.finalize();
  return fa.report();
}

FileReport lint_file(const std::string& path, const Options& opt) {
  SourceFile sf;
  if (!load_source_file(path, sf)) {
    FileReport rep;
    rep.findings.push_back(
        Finding{path, 0, "io-error", "cannot read file", false, std::string()});
    return rep;
  }
  FileAnalysis fa(std::move(sf), opt);
  fa.finalize();
  return fa.report();
}

}  // namespace eroof::lint
