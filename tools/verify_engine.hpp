// tools/verify_engine.hpp
//
// Rule engine for darl_verify, the cross-file concurrency-discipline
// analyzer. Where lint_engine.hpp judges one line at a time, this engine
// is a two-pass harvest-then-check design:
//
//   pass 1 (harvest_source, every file): collect the facts that give the
//     check pass its cross-file reach — DARL_GUARDED_BY field
//     annotations, DARL_REQUIRES function contracts (declared in a
//     header, enforced on the definition in the .cpp), and
//     DARL_ACQUIRED_BEFORE lock-order edges.
//   pass 2 (check_source, every file): a lexical walk of the stripped
//     source tracking brace depth and the set of held mutexes
//     (lock_guard / unique_lock / scoped_lock declarations, unlock()/
//     lock() toggles, scope exit), emitting findings and harvesting
//     "A held while acquiring B" edges into the global lock graph.
//   finale (check_lock_order): cycle-detect the merged lock graph and
//     print each cycle as a witness path with file:line per edge.
//
// Rules (ids are what tools/darl_verify.supp references; kRules below is
// the table darl_verify --list-rules prints):
//   guarded-field         a field annotated DARL_GUARDED_BY(mu) is
//                         accessed (bare, inside a member function of the
//                         declaring class) without holding mu and without
//                         a DARL_REQUIRES(mu) contract on the function
//   lock-order            the global lock-acquisition graph (lexical
//                         nesting edges + DARL_ACQUIRED_BEFORE edges) has
//                         a cycle — a static deadlock
//   blocking-under-lock   recv/send/accept/connect/sleep_for/sleep_until/
//                         join or a condition-variable wait while holding
//                         a mutex; the sanctioned exception is waiting on
//                         the held lock itself with a predicate (or any
//                         timed wait_for/wait_until on the held lock)
//   cv-wait-no-predicate  untimed cv.wait(lk) with no predicate — every
//                         wait must state what it waits for, or spurious
//                         wakeups become logic errors
//   naked-atomic-ordering an atomic load/store/exchange/fetch_*/
//                         compare_exchange_* in serve/ or obs/ hot paths
//                         without an explicit std::memory_order argument
//
// Mutex identity is canonical text: a bare member name is qualified by
// the enclosing class ("BatchScheduler::queue_mutex_"), `this->` is
// dropped, `->` becomes `.`, so the same lock harvested from a header
// annotation and a .cpp lock site unifies. Analysis is lexical, not
// semantic — it cannot see through aliases or virtual dispatch — which
// is exactly the TSan trade: TSan proves the interleavings the tests
// executed, darl_verify proves a (conservative) property of every path
// in the text. See DESIGN.md §15.

#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint_engine.hpp"

namespace darl::verify {

using lint::Finding;
using lint::Rule;

/// Every rule this engine emits, in --list-rules order.
inline constexpr Rule kRules[] = {
    {"guarded-field",
     "DARL_GUARDED_BY field accessed without holding its mutex"},
    {"lock-order",
     "cycle in the global lock-acquisition graph (static deadlock)"},
    {"blocking-under-lock",
     "recv/send/accept/connect/sleep_for/join/cv wait while a mutex is held"},
    {"cv-wait-no-predicate", "untimed cv.wait(lk) without a predicate"},
    {"naked-atomic-ordering",
     "atomic op in serve/ or obs/ without an explicit memory_order"},
};

// ---------------------------------------------------------------------------
// Harvested facts

struct GuardedField {
  std::string cls;    ///< declaring class; "" for a file-scope global
  std::string field;  ///< field identifier
  std::string mutex;  ///< canonical guarding mutex
  std::string path;   ///< file the annotation lives in
  std::size_t line = 0;
};

struct RequiresFn {
  std::string cls;   ///< class the function belongs to ("" for free fn)
  std::string name;  ///< function identifier
  std::vector<std::string> mutexes;  ///< canonical, held on entry
};

struct LockEdge {
  std::string held;      ///< canonical mutex already held
  std::string acquired;  ///< canonical mutex acquired under it
  std::string path;
  std::size_t line = 0;
};

/// Cross-file state: filled by harvest_source over every file, then
/// extended with nesting edges by check_source, then judged globally by
/// check_lock_order.
struct VerifyContext {
  std::vector<GuardedField> guarded_fields;
  std::vector<RequiresFn> requires_fns;
  std::vector<LockEdge> edges;
};

// ---------------------------------------------------------------------------
// Small lexical helpers

namespace detail {

inline std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(pos, text.size())),
                            '\n'));
}

inline bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

inline std::string trim(std::string s) {
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Position of the '}' matching the '{' at `open`, or npos.
inline std::size_t match_brace(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Position of the ')' matching the '(' at `open`, or npos.
inline std::size_t match_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Split an argument list at top-level commas (parens, braces and square
/// brackets nest; angle brackets deliberately do not — see the cv-wait
/// classification, which only needs the count to be exact for untimed
/// waits, whose arguments are a lock and an optional lambda).
inline std::vector<std::string> split_top_args(const std::string& args) {
  std::vector<std::string> out;
  int paren = 0, brace = 0, bracket = 0;
  std::string cur;
  for (const char c : args) {
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (c == ',' && paren == 0 && brace == 0 && bracket == 0) {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  cur = trim(cur);
  if (!cur.empty() || !out.empty()) out.push_back(cur);
  if (out.size() == 1 && out[0].empty()) out.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Regions: class bodies and out-of-line member-function bodies, so a bare
// identifier can be qualified by the class it belongs to.

struct ClassRegion {
  std::string name;
  std::size_t open = 0;   ///< position of '{'
  std::size_t close = 0;  ///< position of matching '}'
};

struct FuncRegion {
  std::string cls;   ///< "Class" from a Class::name definition
  std::string name;  ///< function identifier ("~Class" for the dtor)
  std::size_t body_open = 0;
  std::size_t body_close = 0;
};

inline std::vector<ClassRegion> collect_class_regions(
    const std::string& stripped) {
  // Definition head: class/struct NAME [final] [: bases] { — forward
  // declarations have a ';' first and never match; `enum class` is
  // excluded by the optional prefix capture. Templated base classes
  // (angle brackets in the head) are not recognized; none of the
  // annotated surface uses them.
  static const std::regex head_re(
      R"((\benum\s+)?\b(?:class|struct)\s+([A-Za-z_]\w*)\b([^;{}()<>]*)\{)");
  std::vector<ClassRegion> regions;
  auto begin = std::sregex_iterator(stripped.begin(), stripped.end(), head_re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    if (it->length(1) > 0) continue;  // enum class — not a class region
    const std::size_t open =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = match_brace(stripped, open);
    if (close == std::string::npos) continue;
    regions.push_back(ClassRegion{it->str(2), open, close});
  }
  return regions;
}

/// After a parameter list closing at `params_close`, find the '{' opening
/// the function body, tolerating cv/ref/noexcept qualifiers and a
/// constructor member-initializer list. Returns npos when this is a
/// declaration or call expression rather than a definition.
inline std::size_t find_body_after_params(const std::string& stripped,
                                          std::size_t params_close) {
  std::size_t pos = params_close + 1;
  while (pos < stripped.size()) {
    const char c = stripped[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '{') return pos;
    if (c == '&') {  // ref-qualifier
      ++pos;
      continue;
    }
    if (word_char(c)) {  // const / noexcept / override / final / ...
      std::string word;
      while (pos < stripped.size() && word_char(stripped[pos])) {
        word += stripped[pos++];
      }
      // DARL_REQUIRES(...) etc. between the params and the body.
      std::size_t look = pos;
      while (look < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[look]))) {
        ++look;
      }
      if (look < stripped.size() && stripped[look] == '(' &&
          (word == "noexcept" || word.rfind("DARL_", 0) == 0)) {
        const std::size_t close = match_paren(stripped, look);
        if (close == std::string::npos) return std::string::npos;
        pos = close + 1;
      }
      continue;
    }
    if (c == ':' && pos + 1 < stripped.size() && stripped[pos + 1] != ':') {
      // Constructor member-initializer list: item(args) or item{args},
      // comma-separated, then the body brace.
      ++pos;
      while (pos < stripped.size()) {
        const char d = stripped[pos];
        if (d == '(' || (d == '{' && pos > params_close + 1 &&
                         !std::isspace(static_cast<unsigned char>(
                             stripped[pos - 1])) &&
                         stripped[pos - 1] != ',')) {
          // An opener glued to an identifier is an initializer; balance it.
          const std::size_t close = d == '(' ? match_paren(stripped, pos)
                                             : match_brace(stripped, pos);
          if (close == std::string::npos) return std::string::npos;
          pos = close + 1;
          continue;
        }
        if (d == '{') return pos;  // detached '{' — the body
        if (d == ';') return std::string::npos;
        ++pos;
      }
      return std::string::npos;
    }
    return std::string::npos;  // ';', ',', operators: not a definition
  }
  return std::string::npos;
}

inline std::vector<FuncRegion> collect_func_regions(
    const std::string& stripped) {
  static const std::regex def_re(
      R"(([A-Za-z_]\w*)\s*::\s*(~?[A-Za-z_]\w*)\s*\()");
  std::vector<FuncRegion> regions;
  auto begin = std::sregex_iterator(stripped.begin(), stripped.end(), def_re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::size_t paren =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t params_close = match_paren(stripped, paren);
    if (params_close == std::string::npos) continue;
    const std::size_t body_open =
        find_body_after_params(stripped, params_close);
    if (body_open == std::string::npos) continue;
    const std::size_t body_close = match_brace(stripped, body_open);
    if (body_close == std::string::npos) continue;
    regions.push_back(
        FuncRegion{it->str(1), it->str(2), body_open, body_close});
  }
  return regions;
}

inline const ClassRegion* innermost_class(
    const std::vector<ClassRegion>& regions, std::size_t pos) {
  const ClassRegion* best = nullptr;
  for (const auto& r : regions) {
    if (r.open < pos && pos < r.close &&
        (best == nullptr || r.open > best->open)) {
      best = &r;
    }
  }
  return best;
}

inline const FuncRegion* innermost_func(const std::vector<FuncRegion>& regions,
                                        std::size_t pos) {
  const FuncRegion* best = nullptr;
  for (const auto& r : regions) {
    if (r.body_open < pos && pos < r.body_close &&
        (best == nullptr || r.body_open > best->body_open)) {
      best = &r;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Canonical mutex names

/// Canonicalize a mutex expression: strip address-of and `this->`, turn
/// `->` into `.`, and qualify bare identifiers with the scope's class so
/// "queue_mutex_" written inside BatchScheduler and the annotation in its
/// header name the same lock: "BatchScheduler::queue_mutex_".
inline std::string canonical_mutex(std::string expr,
                                   const std::string& scope_cls) {
  expr = trim(expr);
  while (!expr.empty() && (expr[0] == '&' || expr[0] == '*')) {
    expr = trim(expr.substr(1));
  }
  std::string norm;
  norm.reserve(expr.size());
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (expr[i] == '-' && i + 1 < expr.size() && expr[i + 1] == '>') {
      norm += '.';
      ++i;
    } else {
      norm += expr[i];
    }
  }
  expr = std::move(norm);
  if (expr.rfind("this.", 0) == 0) expr = expr.substr(5);
  if (expr.empty()) return expr;
  if (expr.find("::") != std::string::npos) return expr;
  if (expr.find('.') != std::string::npos) return expr;
  if (!scope_cls.empty()) return scope_cls + "::" + expr;
  return expr;
}

/// The class name that scopes a bare identifier at `pos`: the enclosing
/// out-of-line member definition if any, else the enclosing class body.
inline std::string scope_class_at(const std::vector<ClassRegion>& classes,
                                  const std::vector<FuncRegion>& funcs,
                                  std::size_t pos) {
  if (const FuncRegion* f = innermost_func(funcs, pos)) return f->cls;
  if (const ClassRegion* c = innermost_class(classes, pos)) return c->name;
  return "";
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Pass 1: harvest annotations

inline void harvest_source(const std::string& path_in,
                           const std::string& content, VerifyContext& ctx) {
  const std::string path = lint::normalize_path(path_in);
  const std::string stripped = lint::strip_noncode(content);
  const auto classes = detail::collect_class_regions(stripped);
  const auto funcs = detail::collect_func_regions(stripped);

  // The macro definitions in thread_safety.hpp (and any future #if
  // plumbing) must not harvest as annotations of a field named "define".
  auto preprocessor_line = [&stripped](std::size_t pos) {
    std::size_t bol = stripped.rfind('\n', pos);
    bol = bol == std::string::npos ? 0 : bol + 1;
    while (bol < stripped.size() &&
           (stripped[bol] == ' ' || stripped[bol] == '\t')) {
      ++bol;
    }
    return bol < stripped.size() && stripped[bol] == '#';
  };

  // DARL_GUARDED_BY: the annotated field is the identifier immediately
  // before the macro (array declarators tolerated).
  static const std::regex guarded_re(
      R"(([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*DARL_GUARDED_BY\s*\()");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      guarded_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (preprocessor_line(pos)) continue;
    const std::size_t paren =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = detail::match_paren(stripped, paren);
    if (close == std::string::npos) continue;
    const std::string scope = detail::scope_class_at(classes, funcs, pos);
    GuardedField g;
    g.cls = scope;
    g.field = it->str(1);
    g.mutex = detail::canonical_mutex(
        stripped.substr(paren + 1, close - paren - 1), scope);
    g.path = path;
    g.line = detail::line_of(stripped, pos);
    ctx.guarded_fields.push_back(std::move(g));
  }

  // DARL_REQUIRES: walk back over trailing cv-qualifiers to the parameter
  // list, then to the function name; an explicit Class:: qualifier on the
  // name (out-of-line definition) overrides the enclosing-region scope.
  static const std::regex requires_re(R"(\bDARL_REQUIRES\s*\()");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      requires_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (preprocessor_line(pos)) continue;
    const std::size_t paren =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = detail::match_paren(stripped, paren);
    if (close == std::string::npos) continue;
    // Backward: [const|noexcept|override|final]* ')' ... '(' name
    std::size_t p = pos;
    auto skip_ws_back = [&] {
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(stripped[p - 1]))) {
        --p;
      }
    };
    bool ok = true;
    for (;;) {
      skip_ws_back();
      if (p == 0) {
        ok = false;
        break;
      }
      if (detail::word_char(stripped[p - 1])) {
        std::size_t e = p;
        while (p > 0 && detail::word_char(stripped[p - 1])) --p;
        const std::string word = stripped.substr(p, e - p);
        if (word == "const" || word == "noexcept" || word == "override" ||
            word == "final") {
          continue;
        }
        ok = false;
        break;
      }
      if (stripped[p - 1] == ')') break;
      ok = false;
      break;
    }
    if (!ok) continue;
    // Balance backward over the parameter list.
    int depth = 0;
    std::size_t q = p;  // p is one past ')'
    while (q > 0) {
      --q;
      if (stripped[q] == ')') ++depth;
      if (stripped[q] == '(' && --depth == 0) break;
    }
    if (depth != 0) continue;
    p = q;
    skip_ws_back();
    std::size_t name_end = p;
    while (p > 0 && detail::word_char(stripped[p - 1])) --p;
    if (p > 0 && stripped[p - 1] == '~') --p;
    std::string fn_name = stripped.substr(p, name_end - p);
    if (fn_name.empty() || fn_name == "~") continue;
    std::string cls;
    if (p >= 2 && stripped[p - 1] == ':' && stripped[p - 2] == ':') {
      std::size_t c = p - 2;
      std::size_t cls_end = c;
      while (c > 0 && detail::word_char(stripped[c - 1])) --c;
      cls = stripped.substr(c, cls_end - c);
    } else {
      cls = detail::scope_class_at(classes, funcs, pos);
    }
    RequiresFn r;
    r.cls = cls;
    r.name = std::move(fn_name);
    for (const auto& arg : detail::split_top_args(
             stripped.substr(paren + 1, close - paren - 1))) {
      r.mutexes.push_back(detail::canonical_mutex(arg, cls));
    }
    if (!r.mutexes.empty()) ctx.requires_fns.push_back(std::move(r));
  }

  // DARL_ACQUIRED_BEFORE on a mutex declaration: an edge from the
  // annotated mutex to every listed successor.
  static const std::regex before_re(
      R"(([A-Za-z_]\w*)\s+DARL_ACQUIRED_BEFORE\s*\()");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      before_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (preprocessor_line(pos)) continue;
    const std::size_t paren =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = detail::match_paren(stripped, paren);
    if (close == std::string::npos) continue;
    const std::string scope = detail::scope_class_at(classes, funcs, pos);
    const std::string first = detail::canonical_mutex(it->str(1), scope);
    for (const auto& arg : detail::split_top_args(
             stripped.substr(paren + 1, close - paren - 1))) {
      LockEdge e;
      e.held = first;
      e.acquired = detail::canonical_mutex(arg, scope);
      e.path = path;
      e.line = detail::line_of(stripped, pos);
      if (e.held != e.acquired) ctx.edges.push_back(std::move(e));
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: the lexical walk

namespace detail {

enum class EventKind { LockDecl, LockToggle, CvWait, Blocking, GuardedRef };

struct Event {
  EventKind kind = EventKind::LockDecl;
  std::size_t pos = 0;
  std::size_t line = 0;
  // LockDecl
  std::string var;
  std::vector<std::string> mutexes;  ///< canonical
  bool held = true;                  ///< false for std::defer_lock
  bool adopted = false;              ///< true for std::adopt_lock
  // LockToggle
  bool is_lock = false;  ///< .lock() vs .unlock()
  // CvWait
  bool timed = false;
  bool has_pred = false;
  std::string lock_arg;  ///< raw first argument (the unique_lock variable)
  // Blocking
  std::string what;
  // GuardedRef
  std::size_t field_idx = 0;
};

struct ActiveLock {
  std::string var;                   ///< declared RAII variable ("" = raw)
  std::vector<std::string> mutexes;  ///< canonical
  int depth = 0;                     ///< brace depth at declaration
  bool held = true;
};

/// The names of blocking calls rule (c) flags when a lock is held.
inline const std::regex& blocking_call_re() {
  static const std::regex re(
      R"(\b(recv|send|accept|connect|sleep_for|sleep_until)\s*\(|[.>]\s*(join)\s*\(\s*\))");
  return re;
}

}  // namespace detail

/// Walk one file: emit guarded-field / blocking-under-lock /
/// cv-wait-no-predicate / naked-atomic-ordering findings and append this
/// file's lock-nesting edges to ctx.edges. Call harvest_source over every
/// file first so annotations from headers are visible here.
inline std::vector<Finding> check_source(const std::string& path_in,
                                         const std::string& content,
                                         VerifyContext& ctx) {
  using namespace detail;
  const std::string path = lint::normalize_path(path_in);
  const std::string stripped = lint::strip_noncode(content);
  const std::vector<std::string> lines = lint::split_lines(stripped);
  const auto classes = collect_class_regions(stripped);
  const auto funcs = collect_func_regions(stripped);
  std::vector<Finding> findings;
  auto add = [&](const char* rule, std::size_t line_no, std::string msg) {
    findings.push_back(Finding{rule, path, line_no, std::move(msg)});
  };

  // REQUIRES contracts held on entry to the function enclosing `pos`.
  auto required_at = [&](std::size_t pos) {
    std::vector<std::string> held;
    const FuncRegion* f = innermost_func(funcs, pos);
    if (f == nullptr) return held;
    for (const auto& r : ctx.requires_fns) {
      if (r.cls == f->cls && r.name == f->name) {
        held.insert(held.end(), r.mutexes.begin(), r.mutexes.end());
      }
    }
    return held;
  };

  // -------------------------------------------------------------------------
  // Event collection

  std::vector<Event> events;

  // RAII lock declarations: lock_guard / unique_lock / shared_lock /
  // scoped_lock, with or without explicit template arguments.
  static const std::regex lock_decl_re(
      R"(\b(?:std\s*::\s*)?(lock_guard|unique_lock|shared_lock|scoped_lock)\b)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      lock_decl_re);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position() + it->length());
    // Optional template argument list.
    std::size_t look = pos;
    while (look < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[look]))) {
      ++look;
    }
    if (look < stripped.size() && stripped[look] == '<') {
      int depth = 0;
      while (look < stripped.size()) {
        if (stripped[look] == '<') ++depth;
        if (stripped[look] == '>' && --depth == 0) break;
        ++look;
      }
      if (look >= stripped.size()) continue;
      ++look;
    }
    while (look < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[look]))) {
      ++look;
    }
    // Variable name, then an immediate initializer — anything else (a
    // parameter declaration, a bare type mention) is not a lock site.
    std::string var;
    while (look < stripped.size() && word_char(stripped[look])) {
      var += stripped[look++];
    }
    if (var.empty()) continue;
    while (look < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[look]))) {
      ++look;
    }
    if (look >= stripped.size() ||
        (stripped[look] != '(' && stripped[look] != '{')) {
      continue;
    }
    const std::size_t close = stripped[look] == '('
                                  ? match_paren(stripped, look)
                                  : match_brace(stripped, look);
    if (close == std::string::npos) continue;
    Event e;
    e.kind = EventKind::LockDecl;
    e.pos = static_cast<std::size_t>(it->position());
    e.line = line_of(stripped, e.pos);
    e.var = std::move(var);
    const std::string scope = scope_class_at(classes, funcs, e.pos);
    for (auto& arg :
         split_top_args(stripped.substr(look + 1, close - look - 1))) {
      std::string canon = canonical_mutex(arg, scope);
      const std::string tail =
          canon.size() >= 2 && canon.compare(0, 5, "std::") == 0
              ? canon.substr(5)
              : canon;
      if (tail == "defer_lock") {
        e.held = false;
      } else if (tail == "adopt_lock") {
        e.adopted = true;
      } else if (tail == "try_to_lock") {
        // approximated as acquired
      } else if (!canon.empty()) {
        e.mutexes.push_back(std::move(canon));
      }
    }
    if (!e.mutexes.empty()) events.push_back(std::move(e));
  }

  // lock()/unlock()/try_lock() toggles on a lock variable or raw mutex.
  static const std::regex toggle_re(
      R"(\b([A-Za-z_]\w*)\s*\.\s*(lock|unlock|try_lock)\s*\(\s*\))");
  for (auto it =
           std::sregex_iterator(stripped.begin(), stripped.end(), toggle_re);
       it != std::sregex_iterator(); ++it) {
    Event e;
    e.kind = EventKind::LockToggle;
    e.pos = static_cast<std::size_t>(it->position());
    e.line = line_of(stripped, e.pos);
    e.var = it->str(1);
    e.is_lock = it->str(2) != "unlock";
    events.push_back(std::move(e));
  }

  // Condition-variable waits. Untimed single-argument waits are flagged
  // as cv-wait-no-predicate immediately; all waits also become events so
  // blocking-under-lock can judge them against the held set.
  static const std::regex wait_re(R"([.>]\s*wait(_for|_until)?\s*\()");
  for (auto it =
           std::sregex_iterator(stripped.begin(), stripped.end(), wait_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t paren =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = match_paren(stripped, paren);
    if (close == std::string::npos) continue;
    const auto args =
        split_top_args(stripped.substr(paren + 1, close - paren - 1));
    if (args.empty()) continue;  // future.wait() — not a cv wait
    Event e;
    e.kind = EventKind::CvWait;
    e.pos = static_cast<std::size_t>(it->position());
    e.line = line_of(stripped, e.pos);
    e.timed = it->length(1) > 0;
    e.has_pred = e.timed ? args.size() >= 3 : args.size() >= 2;
    e.lock_arg = args[0];
    if (!e.timed && args.size() == 1) {
      add("cv-wait-no-predicate", e.line,
          "untimed cv wait without a predicate; spurious wakeups make this "
          "a logic error — use wait(" +
              e.lock_arg + ", [&] { ... })");
    }
    events.push_back(std::move(e));
  }

  // Blocking calls.
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      blocking_call_re());
       it != std::sregex_iterator(); ++it) {
    Event e;
    e.kind = EventKind::Blocking;
    e.pos = static_cast<std::size_t>(it->position());
    e.line = line_of(stripped, e.pos);
    e.what = it->length(1) > 0 ? it->str(1) : it->str(2);
    events.push_back(std::move(e));
  }

  // Bare references to harvested guarded fields.
  for (std::size_t fi = 0; fi < ctx.guarded_fields.size(); ++fi) {
    const GuardedField& g = ctx.guarded_fields[fi];
    if (g.cls.empty() && g.path != path) continue;  // file-scope global
    std::size_t from = 0;
    while ((from = stripped.find(g.field, from)) != std::string::npos) {
      const std::size_t pos = from;
      from += g.field.size();
      // Word boundaries.
      if (pos > 0 && word_char(stripped[pos - 1])) continue;
      const std::size_t after = pos + g.field.size();
      if (after < stripped.size() && word_char(stripped[after])) continue;
      // Member access on some other object (obj.f / p->f / C::f) is out
      // of scope for the lexical checker.
      std::size_t b = pos;
      while (b > 0 &&
             std::isspace(static_cast<unsigned char>(stripped[b - 1]))) {
        --b;
      }
      if (b > 0) {
        const char prev = stripped[b - 1];
        if (prev == '.') continue;
        if (prev == '>' && b >= 2 && stripped[b - 2] == '-') continue;
        if (prev == ':' && b >= 2 && stripped[b - 2] == ':') continue;
      }
      const std::size_t line_no = line_of(stripped, pos);
      // The annotated declaration itself: the macro either shares the
      // occurrence's line or (wrapped declaration) directly follows it.
      if (line_no - 1 < lines.size() &&
          lines[line_no - 1].find("DARL_GUARDED_BY") != std::string::npos) {
        continue;
      }
      std::size_t nx = after;
      while (nx < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[nx]))) {
        ++nx;
      }
      if (stripped.compare(nx, 15, "DARL_GUARDED_BY") == 0) continue;
      const FuncRegion* f = innermost_func(funcs, pos);
      if (g.cls.empty()) {
        if (f == nullptr && innermost_class(classes, pos) != nullptr) {
          continue;  // a same-named field declaration, not the global
        }
      } else {
        const std::string enclosing =
            f != nullptr
                ? f->cls
                : (innermost_class(classes, pos) != nullptr
                       ? innermost_class(classes, pos)->name
                       : std::string());
        if (enclosing != g.cls) continue;
        // Constructors and destructors run before the object is shared.
        if (f != nullptr && (f->name == g.cls || f->name == "~" + g.cls)) {
          continue;
        }
      }
      Event e;
      e.kind = EventKind::GuardedRef;
      e.pos = pos;
      e.line = line_no;
      e.field_idx = fi;
      events.push_back(std::move(e));
    }
  }

  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.pos < b.pos; });

  // -------------------------------------------------------------------------
  // naked-atomic-ordering: pure pattern rule, hot paths only. The
  // argument list is parsed balanced so a memory_order on a continuation
  // line still counts.
  const bool hot_path = path.find("/serve/") != std::string::npos ||
                        path.find("/obs/") != std::string::npos ||
                        path.rfind("serve/", 0) == 0 ||
                        path.rfind("obs/", 0) == 0;
  if (hot_path) {
    static const std::regex atomic_re(
        R"([.>]\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\()");
    for (auto it =
             std::sregex_iterator(stripped.begin(), stripped.end(), atomic_re);
         it != std::sregex_iterator(); ++it) {
      const std::size_t paren =
          static_cast<std::size_t>(it->position() + it->length()) - 1;
      const std::size_t close = match_paren(stripped, paren);
      if (close == std::string::npos) continue;
      const std::string args = stripped.substr(paren + 1, close - paren - 1);
      if (args.find("memory_order") != std::string::npos) continue;
      add("naked-atomic-ordering",
          line_of(stripped, static_cast<std::size_t>(it->position())),
          "atomic " + it->str(1) +
              "() without an explicit memory_order on a serve/obs hot "
              "path; name the ordering (memory_order_relaxed if that is "
              "what you mean)");
    }
  }

  // -------------------------------------------------------------------------
  // The walk: brace depth + held-lock tracking.

  std::vector<ActiveLock> locks;
  auto held_mutexes = [&](std::size_t pos) {
    std::vector<std::string> held = required_at(pos);
    for (const auto& l : locks) {
      if (l.held) held.insert(held.end(), l.mutexes.begin(), l.mutexes.end());
    }
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    return held;
  };
  auto join_names = [](const std::vector<std::string>& names) {
    std::string out;
    for (const auto& n : names) {
      if (!out.empty()) out += ", ";
      out += n;
    }
    return out;
  };
  auto record_acquisition = [&](const std::vector<std::string>& acquired,
                                std::size_t line_no,
                                const std::vector<std::string>& held) {
    for (const auto& h : held) {
      for (const auto& m : acquired) {
        LockEdge e;
        e.held = h;
        e.acquired = m;
        e.path = path;
        e.line = line_no;
        ctx.edges.push_back(std::move(e));  // h == m cycles self-report
      }
    }
  };

  std::size_t ev = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= stripped.size(); ++i) {
    while (ev < events.size() && events[ev].pos == i) {
      Event& e = events[ev++];
      switch (e.kind) {
        case EventKind::LockDecl: {
          if (e.held && !e.adopted) {
            record_acquisition(e.mutexes, e.line, held_mutexes(e.pos));
          }
          ActiveLock a;
          a.var = e.var;
          a.mutexes = e.mutexes;
          a.depth = depth;
          a.held = e.held;
          locks.push_back(std::move(a));
          break;
        }
        case EventKind::LockToggle: {
          ActiveLock* target = nullptr;
          for (auto rit = locks.rbegin(); rit != locks.rend(); ++rit) {
            if (rit->var == e.var) {
              target = &*rit;
              break;
            }
          }
          if (target != nullptr) {
            if (e.is_lock && !target->held) {
              record_acquisition(target->mutexes, e.line, held_mutexes(e.pos));
              target->held = true;
            } else if (!e.is_lock) {
              target->held = false;
            }
          } else if (e.is_lock) {
            // Raw mutex.lock(): treat the mutex itself as the handle.
            const std::string canon = canonical_mutex(
                e.var, scope_class_at(classes, funcs, e.pos));
            record_acquisition({canon}, e.line, held_mutexes(e.pos));
            ActiveLock a;
            a.var = e.var;
            a.mutexes = {canon};
            a.depth = depth;
            locks.push_back(std::move(a));
          }
          break;
        }
        case EventKind::CvWait: {
          const auto held = held_mutexes(e.pos);
          if (held.empty()) break;
          std::vector<std::string> wait_lock;
          for (auto rit = locks.rbegin(); rit != locks.rend(); ++rit) {
            if (rit->var == e.lock_arg) {
              wait_lock = rit->mutexes;
              break;
            }
          }
          std::sort(wait_lock.begin(), wait_lock.end());
          const bool same_lock_only = !wait_lock.empty() && wait_lock == held;
          const bool sanctioned =
              same_lock_only && (e.timed || e.has_pred);
          if (!sanctioned) {
            add("blocking-under-lock", e.line,
                same_lock_only
                    ? "cv wait on the held lock without a predicate; the "
                      "sanctioned form is wait(" +
                          e.lock_arg + ", [&] { ... })"
                    : "cv wait while holding { " + join_names(held) +
                          " }; waiting releases only its own lock — every "
                          "other held mutex blocks all contenders for the "
                          "whole wait");
          }
          break;
        }
        case EventKind::Blocking: {
          const auto held = held_mutexes(e.pos);
          if (!held.empty()) {
            add("blocking-under-lock", e.line,
                "blocking call " + e.what + "() while holding { " +
                    join_names(held) +
                    " }; release the lock first (snapshot the state, then "
                    "block)");
          }
          break;
        }
        case EventKind::GuardedRef: {
          const GuardedField& g = ctx.guarded_fields[e.field_idx];
          const auto held = held_mutexes(e.pos);
          if (std::find(held.begin(), held.end(), g.mutex) == held.end()) {
            add("guarded-field", e.line,
                "field '" + g.field + "' is guarded by " + g.mutex +
                    " (declared " + g.path + ":" + std::to_string(g.line) +
                    ") but accessed without holding it; lock the mutex or "
                    "annotate the function DARL_REQUIRES(" +
                    g.mutex + ")");
          }
          break;
        }
      }
    }
    if (i >= stripped.size()) break;
    const char c = stripped[i];
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
      // Locks are scoped objects: destruction order is reverse
      // declaration order, and a '}' can only retire the deepest ones.
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

// ---------------------------------------------------------------------------
// Finale: the global lock graph

/// Cycle-detect the merged lock graph. Every distinct cycle becomes one
/// finding whose message is the witness path, each edge stamped with the
/// file:line where the nested acquisition (or annotation) was seen.
inline std::vector<Finding> check_lock_order(const VerifyContext& ctx) {
  // Dedupe edges, keeping the first witness site per (held, acquired).
  std::map<std::pair<std::string, std::string>, const LockEdge*> uniq;
  for (const auto& e : ctx.edges) {
    uniq.emplace(std::make_pair(e.held, e.acquired), &e);
  }
  std::map<std::string, std::vector<std::pair<std::string, const LockEdge*>>>
      adj;
  for (const auto& [key, edge] : uniq) {
    adj[key.first].emplace_back(key.second, edge);
  }

  std::vector<Finding> findings;
  std::set<std::string> reported;  // normalized cycle keys
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::pair<std::string, const LockEdge*>> stack;

  // Iterative DFS from every node (map order → deterministic output).
  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = 1;
        auto it = adj.find(node);
        if (it != adj.end()) {
          for (const auto& [next, edge] : it->second) {
            if (color[next] == 1) {
              // Back edge: the cycle is the stack suffix from `next`.
              std::vector<std::pair<std::string, const LockEdge*>> cycle;
              std::size_t start = stack.size();
              while (start > 0 && stack[start - 1].first != next) --start;
              if (start > 0) --start;
              for (std::size_t s = start; s < stack.size(); ++s) {
                cycle.push_back(stack[s]);
              }
              cycle.emplace_back(next, edge);  // closing edge target
              // Normalize: rotate so the smallest node leads.
              std::vector<std::string> nodes;
              for (std::size_t s = start; s < stack.size(); ++s) {
                nodes.push_back(stack[s].first);
              }
              if (nodes.empty()) nodes.push_back(next);
              const std::size_t min_i = static_cast<std::size_t>(
                  std::min_element(nodes.begin(), nodes.end()) -
                  nodes.begin());
              std::string key;
              for (std::size_t s = 0; s < nodes.size(); ++s) {
                key += nodes[(min_i + s) % nodes.size()] + ">";
              }
              if (reported.insert(key).second) {
                // Witness: A -> B (file:line) -> ... -> A (file:line),
                // each site being where the arrow's target was acquired.
                std::string msg = "lock-order cycle: " + nodes[0];
                const LockEdge* first_edge = nullptr;
                for (std::size_t s = 0; s + 1 < cycle.size(); ++s) {
                  const LockEdge* step =
                      uniq.at(std::make_pair(cycle[s].first,
                                             cycle[s + 1].first));
                  if (first_edge == nullptr) first_edge = step;
                  msg += " -> " + cycle[s + 1].first + " (" + step->path +
                         ":" + std::to_string(step->line) + ")";
                }
                if (first_edge != nullptr) {
                  findings.push_back(Finding{"lock-order", first_edge->path,
                                             first_edge->line,
                                             std::move(msg)});
                }
              }
            } else if (color[next] == 0) {
              stack.emplace_back(next, edge);
              visit(next);
              stack.pop_back();
            }
          }
        }
        color[node] = 2;
      };
  for (const auto& [node, edges] : adj) {
    (void)edges;
    if (color[node] == 0) {
      stack.clear();
      stack.emplace_back(node, nullptr);
      visit(node);
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace darl::verify
