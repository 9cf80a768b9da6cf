// tools/lint_engine.hpp
//
// Rule engine for darl_lint, the project-specific static-analysis pass.
// Header-only and dependency-free so tests/test_lint.cpp can drive the
// rules against in-memory fixture snippets without touching the
// filesystem; tools/darl_lint.cpp adds the directory walk and reporting.
//
// The engine works on "stripped" source: comments, string literals and
// character literals are blanked out (line structure preserved), so a
// banned pattern inside a comment or a string — including the fixture
// snippets in the linter's own tests — never counts as a finding.
//
// Rules (ids are what the suppression file references; kRules below is
// the table darl_lint --list-rules prints):
//   banned-random     std::rand / srand / std::random_device anywhere
//   wall-clock        argless now() / system_clock / clock_gettime /
//                     gettimeofday outside stopwatch/obs/log
//   unordered-iter    iteration over a declared unordered_map/unordered_set
//   raw-new-delete    raw new / delete expressions (= delete is fine;
//                     #include lines, such as `#include <new>`, are not
//                     expressions)
//   float-literal     float literals inside ode/ linalg/ rl/ nn/
//   std-endl          std::endl (flushes; use '\n')
//   pragma-once       .hpp file without #pragma once
//   catch-all         catch (...) whose handler neither rethrows nor
//                     records via std::current_exception
//   detached-thread   std::thread::detach()
//   thread-in-numeric-code  any std::thread use inside src/darl/linalg/
//                     or src/darl/nn/ — the numeric kernels run on their
//                     caller's thread, so every result is one fixed
//                     sequence of operations; concurrency belongs to the
//                     callers (trial lanes, serve workers, actors)
//   heap-alloc-in-kernel  new / .resize( / .push_back( inside the body of
//                     a definition marked DARL_KERNEL (darl/common/
//                     kernel.hpp) — the batched nn/linalg loops, the gemm
//                     micro-kernel and its loop nest, and the serve
//                     scheduler's dispatch path must stay allocation-free;
//                     workspace growth belongs in ensure_*/reshape helpers
//                     called before the kernel (suppressible for one-time
//                     growth)
//   metric-name       instrument names and label keys passed to
//                     .counter("...") / .gauge("...") / .histogram("...")
//                     or the DARL_COUNTER_ADD / DARL_GAUGE_* macros must
//                     match [a-z0-9_.]+ — the registry rejects anything
//                     else at runtime; this catches it statically. Unlike
//                     every other rule this one scans the RAW source (the
//                     names live inside string literals, which the
//                     stripper blanks), so a registration call quoted in a
//                     comment counts too: keep examples well-formed.
//   metric-lookup-in-kernel  Registry::global() or a .counter(/.gauge(/
//                     .histogram( lookup inside a DARL_KERNEL body —
//                     instrument lookup takes the registration mutex and
//                     a map walk; hot loops must resolve instruments once
//                     outside (the DARL_* macros' function-local static,
//                     or a static helper)
//   naked-socket-call ::recv( / ::send( / ::accept( anywhere outside
//                     src/darl/net/ — raw socket I/O forgets one of
//                     MSG_NOSIGNAL, the EINTR retry, the partial-transfer
//                     loop or the EOF-vs-error split; go through the
//                     darl/net/socket.hpp helpers (send_all, recv_some,
//                     recv_exact, recv_until_eof, accept_retry), which is
//                     the repo's single home for those loops
//   libm-call         a std::, :: or unqualified call of one of libm's
//                     inexact functions (tanh, exp, log, sin, cos, pow,
//                     atan2, hypot, expm1, erf, lgamma, ...), or a <random>
//                     distribution that calls them (normal, lognormal,
//                     exponential, gamma, poisson, ...), in src/ outside
//                     darl/common/elementary.* — glibc picks FMA or
//                     non-FMA variants of these by CPU, so their bits are
//                     host-dependent; call darl::math:: instead. The exact
//                     ones (sqrt, fabs, floor, fmod, ldexp, ...) and the
//                     uniform draws stay allowed
//
// Suppression file format (tools/darl_lint.supp): one entry per line,
//   <rule-id> <path-suffix> -- <justification>
// Blank lines and lines starting with '#' are ignored. An entry matches
// every finding of <rule-id> in any scanned file whose normalized path
// ends with <path-suffix>. Entries that match nothing are themselves
// errors, so the file can only shrink when code gets cleaner.

#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

namespace darl::lint {

/// One row of a tool's rule table: the id that findings and suppressions
/// use, and the summary --list-rules prints after it.
struct Rule {
  const char* id;
  const char* summary;
};

/// Every rule this engine emits, in --list-rules order.
inline constexpr Rule kRules[] = {
    {"banned-random", "std::rand / srand / std::random_device"},
    {"wall-clock",
     "argless now() / system_clock / clock_gettime / gettimeofday outside "
     "stopwatch/obs/log"},
    {"unordered-iter", "iteration over unordered_map/unordered_set"},
    {"raw-new-delete", "raw new / delete expressions"},
    {"float-literal", "float literals in ode/ linalg/ rl/ nn/"},
    {"std-endl", "std::endl"},
    {"pragma-once", ".hpp without #pragma once"},
    {"catch-all", "catch (...) without rethrow or recording"},
    {"detached-thread", "std::thread::detach()"},
    {"thread-in-numeric-code",
     "any std::thread use in src/darl/linalg/ or src/darl/nn/"},
    {"heap-alloc-in-kernel",
     "new / .resize( / .push_back( inside a DARL_KERNEL body"},
    {"metric-name",
     "instrument/label-key names outside [a-z0-9_.]+ (scans raw source)"},
    {"metric-lookup-in-kernel", "registry lookup inside a DARL_KERNEL body"},
    {"naked-socket-call", "::recv( / ::send( / ::accept( outside src/darl/net/"},
    {"libm-call",
     "libm's inexact functions (tanh, exp, log, ...) in src/ outside "
     "darl/common/elementary.*"},
};

struct Finding {
  std::string rule;
  std::string path;
  std::size_t line = 0;  ///< 1-based line number
  std::string message;
};

struct Suppression {
  std::string rule;
  std::string path_suffix;
  std::string justification;
  std::size_t line = 0;  ///< 1-based line in the suppression file
  bool used = false;     ///< set by apply_suppressions
};

/// Project-wide context shared across files: names declared anywhere as
/// unordered containers, so iteration in a .cpp over a member declared in
/// its header is still caught.
struct ScanContext {
  std::vector<std::string> unordered_names;
};

// ---------------------------------------------------------------------------
// Source preparation

/// Blank out comments, string literals (including raw strings) and
/// character literals, preserving line structure and column positions.
inline std::string strip_noncode(const std::string& src) {
  enum class State { Code, LineComment, BlockComment, String, Char, RawString };
  std::string out;
  out.reserve(src.size());
  State state = State::Code;
  std::string raw_end;        // ")delim\"" terminator for the raw string
  char prev_code = '\0';      // last code character emitted (for 1'000)
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          if (prev_code == 'R') {
            // R"delim( ... )delim"  — find the delimiter.
            std::size_t paren = src.find('(', i + 1);
            if (paren == std::string::npos) paren = src.size();
            raw_end = ")" + src.substr(i + 1, paren - i - 1) + "\"";
            state = State::RawString;
          } else {
            state = State::String;
          }
          out += ' ';
        } else if (c == '\'' &&
                   !(std::isalnum(static_cast<unsigned char>(prev_code)) ||
                     prev_code == '_')) {
          // A quote after an identifier/digit is a digit separator
          // (1'000'000) or ill-formed anyway; only open a char literal
          // after a non-word character.
          state = State::Char;
          out += ' ';
        } else {
          out += c;
          if (!std::isspace(static_cast<unsigned char>(c))) prev_code = c;
        }
        break;
      case State::LineComment:
        if (c == '\n') {
          state = State::Code;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          state = State::Code;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::String:
      case State::Char:
        if (c == '\\') {
          out += ' ';
          if (next != '\0') {
            out += next == '\n' ? '\n' : ' ';
            ++i;
          }
        } else if ((state == State::String && c == '"') ||
                   (state == State::Char && c == '\'')) {
          state = State::Code;
          prev_code = '\0';
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::RawString:
        if (src.compare(i, raw_end.size(), raw_end) == 0) {
          out.append(raw_end.size(), ' ');
          i += raw_end.size() - 1;
          state = State::Code;
          prev_code = '\0';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Use '/' separators regardless of platform so suffix matching and the
/// per-rule path scoping behave identically everywhere.
inline std::string normalize_path(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

// ---------------------------------------------------------------------------
// Declaration harvesting (for unordered-iter)

/// Collect identifiers declared with an unordered_map/unordered_set type
/// in (stripped) source: `std::unordered_set<std::string> seen_keys_;`
/// records "seen_keys_". Heuristic: the identifier that follows the
/// closing '>' of an unordered_* template-id.
inline void collect_unordered_names(const std::string& stripped,
                                    std::vector<std::string>& names) {
  static const std::regex decl_re(
      R"(\bunordered_(?:map|set|multimap|multiset)\s*<)");
  auto begin = std::sregex_iterator(stripped.begin(), stripped.end(), decl_re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    // Walk to the matching '>' of the template argument list.
    std::size_t pos = static_cast<std::size_t>(it->position()) + it->length();
    int depth = 1;
    while (pos < stripped.size() && depth > 0) {
      if (stripped[pos] == '<') ++depth;
      if (stripped[pos] == '>') --depth;
      ++pos;
    }
    if (depth != 0) continue;
    // Skip whitespace and reference/pointer decorations.
    while (pos < stripped.size() &&
           (std::isspace(static_cast<unsigned char>(stripped[pos])) ||
            stripped[pos] == '&' || stripped[pos] == '*')) {
      ++pos;
    }
    std::string name;
    while (pos < stripped.size() &&
           (std::isalnum(static_cast<unsigned char>(stripped[pos])) ||
            stripped[pos] == '_')) {
      name += stripped[pos++];
    }
    if (name.empty()) continue;
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
}

// ---------------------------------------------------------------------------
// Rules

namespace detail {

inline bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// Files allowed to read the wall clock: the stopwatch is the one timing
/// primitive, and obs/log stamp diagnostics with it.
inline bool wall_clock_whitelisted(const std::string& path) {
  return contains(path, "common/stopwatch") || contains(path, "/obs/") ||
         contains(path, "common/log");
}

/// Directories holding double-precision numeric code where a stray float
/// literal silently truncates.
inline bool double_precision_path(const std::string& path) {
  return contains(path, "/ode/") || contains(path, "/linalg/") ||
         contains(path, "/rl/") || contains(path, "/nn/");
}

/// Scope of the thread-in-numeric-code rule: the deterministic numeric
/// libraries.
inline bool thread_restricted_path(const std::string& path) {
  return contains(path, "/linalg/") || contains(path, "/nn/");
}

/// Scope of the naked-socket-call rule: everywhere except darl/net, the
/// one directory allowed to touch the raw POSIX socket calls.
inline bool socket_restricted_path(const std::string& path) {
  return !contains(path, "/darl/net/");
}

/// Scope of the libm-call rule: src/, apart from the module that owns the
/// elementary functions.
inline bool libm_restricted_path(const std::string& path) {
  return (path.rfind("src/", 0) == 0 || contains(path, "/src/")) &&
         !contains(path, "darl/common/elementary.");
}

inline bool is_header(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

/// Scan the handler block that starts at `pos` (the position of the
/// catch keyword) for evidence the exception is rethrown or recorded.
inline bool catch_block_records(const std::string& stripped, std::size_t pos) {
  const std::size_t open = stripped.find('{', pos);
  if (open == std::string::npos) return false;
  int depth = 0;
  std::size_t end = open;
  for (; end < stripped.size(); ++end) {
    if (stripped[end] == '{') ++depth;
    if (stripped[end] == '}' && --depth == 0) break;
  }
  static const std::regex records_re(
      R"(\bthrow\b|\bcurrent_exception\b|\brethrow_exception\b)");
  const std::string block = stripped.substr(open, end - open + 1);
  return std::regex_search(block, records_re);
}

/// Starting from `paren` (the '(' that follows a DARL_KERNEL-marked name),
/// decide whether this is a function *definition* and, if so, return the
/// [body_open, body_close] brace positions of its body. Declarations and
/// call expressions are rejected: between the parameter list's ')' and the
/// body's '{' only whitespace and word characters (const, noexcept,
/// override, ...) may appear — a ';', ',' or any operator character means
/// there is no body here.
inline bool kernel_body_range(const std::string& stripped, std::size_t paren,
                              std::size_t& body_open,
                              std::size_t& body_close) {
  int depth = 0;
  std::size_t pos = paren;
  for (; pos < stripped.size(); ++pos) {
    if (stripped[pos] == '(') ++depth;
    if (stripped[pos] == ')' && --depth == 0) break;
  }
  if (pos >= stripped.size()) return false;
  for (++pos; pos < stripped.size(); ++pos) {
    const char c = stripped[pos];
    if (c == '{') break;
    if (!std::isspace(static_cast<unsigned char>(c)) &&
        !std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  if (pos >= stripped.size()) return false;
  body_open = pos;
  depth = 0;
  for (; pos < stripped.size(); ++pos) {
    if (stripped[pos] == '{') ++depth;
    if (stripped[pos] == '}' && --depth == 0) break;
  }
  if (pos >= stripped.size()) return false;
  body_close = pos;
  return true;
}

}  // namespace detail

/// Run every rule over one file. `path` is only used for scoping and
/// reporting; `content` is the raw source text.
inline std::vector<Finding> scan_source(const std::string& path_in,
                                        const std::string& content,
                                        const ScanContext& ctx = {}) {
  const std::string path = normalize_path(path_in);
  const std::string stripped = strip_noncode(content);
  const std::vector<std::string> lines = split_lines(stripped);
  std::vector<Finding> findings;
  auto add = [&](const char* rule, std::size_t line_no, std::string msg) {
    findings.push_back(Finding{rule, path, line_no, std::move(msg)});
  };

  // File-level names for unordered-iter: project-wide context plus any
  // declaration local to this file.
  std::vector<std::string> unordered = ctx.unordered_names;
  collect_unordered_names(stripped, unordered);

  static const std::regex random_re(
      R"(\b(?:std\s*::\s*)?s?rand\s*\(|\brandom_device\b)");
  static const std::regex wall_clock_re(
      R"(\bnow\s*\(\s*\)|\bsystem_clock\b|\bclock_gettime\b|\bgettimeofday\b)");
  static const std::regex new_re(R"(\bnew\b)");
  static const std::regex include_re(R"(^\s*#\s*include\b)");
  static const std::regex delete_re(R"(\bdelete\b)");
  static const std::regex deleted_fn_re(R"(=\s*delete\b)");
  static const std::regex float_literal_re(
      R"(\b(?:(?:\d+\.\d*|\d*\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)[fF]\b)");
  static const std::regex endl_re(R"(\bstd\s*::\s*endl\b)");
  static const std::regex catch_all_re(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
  static const std::regex detach_re(R"(\.\s*detach\s*\(\s*\))");
  static const std::regex std_thread_re(R"(\bstd\s*::\s*thread\b)");
  static const std::regex naked_socket_re(R"(::\s*(?:recv|send|accept)\s*\()");
  // An inexact libm function called through std::, the global ::, or
  // unqualified (not as a member, and not through another namespace such
  // as darl::math::), with or without its float/long suffix.
  static const std::regex libm_call_re(
      R"((?:\bstd\s*::\s*|(?:^|[^\w:>])::\s*|(?:^|[^\w:.>])))"
      R"((?:tanh|exp|expm1|exp2|exp10|log|log1p|log2|log10|logb|)"
      R"(sin|cos|tan|asin|acos|atan|atan2|sinh|cosh|asinh|acosh|atanh|)"
      R"(sincos|hypot|pow|cbrt|erf|erfc|lgamma|tgamma)[fl]?\s*\()");
  static const std::regex libm_distribution_re(
      R"(\b(?:normal|lognormal|exponential|gamma|weibull|extreme_value|)"
      R"(chi_squared|cauchy|fisher_f|student_t|poisson|binomial|)"
      R"(negative_binomial|geometric)_distribution\b)");
  static const std::regex range_for_re(R"(\bfor\s*\()");
  static const std::regex pragma_once_re(R"(#\s*pragma\s+once\b)");

  const bool check_wall_clock = !detail::wall_clock_whitelisted(path);
  const bool check_float = detail::double_precision_path(path);
  const bool check_thread = detail::thread_restricted_path(path);
  const bool check_socket = detail::socket_restricted_path(path);
  const bool check_libm = detail::libm_restricted_path(path);

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t line_no = i + 1;
    if (line.empty()) continue;

    if (std::regex_search(line, random_re)) {
      add("banned-random", line_no,
          "nondeterminism source (rand/srand/random_device); draw from a "
          "seeded darl::Rng instead");
    }
    if (check_wall_clock && std::regex_search(line, wall_clock_re)) {
      add("wall-clock", line_no,
          "wall-clock read outside stopwatch/obs/log; route host timing "
          "through darl::Stopwatch");
    }
    // A header name survives stripping, so `#include <new>` would read as
    // a raw new; include lines hold no expressions.
    const bool include_line = std::regex_search(line, include_re);
    if (!include_line && std::regex_search(line, new_re)) {
      add("raw-new-delete", line_no,
          "raw 'new'; use std::make_unique / containers (suppress only for "
          "intentionally leaked singletons)");
    }
    if (!include_line && std::regex_search(line, delete_re) &&
        !std::regex_search(line, deleted_fn_re)) {
      add("raw-new-delete", line_no,
          "raw 'delete'; ownership belongs in a smart pointer or container");
    }
    if (check_float && std::regex_search(line, float_literal_re)) {
      add("float-literal", line_no,
          "float literal in double-precision numeric code; write a double "
          "literal");
    }
    if (std::regex_search(line, endl_re)) {
      add("std-endl", line_no, "std::endl flushes the stream; use '\\n'");
    }
    if (std::regex_search(line, detach_re)) {
      add("detached-thread", line_no,
          "detached thread outside the sanctioned study watchdog site");
    }
    if (check_thread && std::regex_search(line, std_thread_re)) {
      add("thread-in-numeric-code", line_no,
          "std::thread in linalg/nn; the numeric kernels run on their "
          "caller's thread so each result is one fixed sequence of "
          "operations — parallelize in the caller");
    }
    if (check_socket && std::regex_search(line, naked_socket_re)) {
      add("naked-socket-call", line_no,
          "raw recv/send/accept outside darl/net; use the socket.hpp "
          "helpers (send_all / recv_some / recv_exact / recv_until_eof / "
          "accept_retry) — they own MSG_NOSIGNAL, EINTR retry and the "
          "partial-transfer loops");
    }

    if (check_libm && std::regex_search(line, libm_call_re)) {
      add("libm-call", line_no,
          "libm elementary function in src/; its bits depend on the host's "
          "libm and CPU — call darl::math:: (darl/common/elementary.hpp)");
    }
    if (check_libm && std::regex_search(line, libm_distribution_re)) {
      add("libm-call", line_no,
          "<random> distribution that calls libm; draw through darl::Rng "
          "(its normals are owned, over darl::math::log)");
    }

    // unordered-iter: a range-for whose range expression names a declared
    // unordered container, or an explicit name.begin() iterator loop.
    std::smatch for_m;
    if (std::regex_search(line, for_m, range_for_re)) {
      const std::string rest = for_m.suffix().str();
      // The range-for separator is a single ':' that is not part of '::'.
      std::size_t colon = std::string::npos;
      for (std::size_t p = 0; p < rest.size(); ++p) {
        if (rest[p] != ':') continue;
        const bool dbl = (p + 1 < rest.size() && rest[p + 1] == ':') ||
                         (p > 0 && rest[p - 1] == ':');
        if (!dbl) {
          colon = p;
          break;
        }
      }
      if (colon != std::string::npos) {
        const std::string range_expr = rest.substr(colon + 1);
        for (const auto& name : unordered) {
          const std::regex name_re("\\b" + name + "\\b");
          if (std::regex_search(range_expr, name_re)) {
            add("unordered-iter", line_no,
                "iteration over unordered container '" + name +
                    "'; hash order is nondeterministic — copy into a sorted "
                    "container before feeding output or metrics");
            break;
          }
        }
      }
    }
    for (const auto& name : unordered) {
      const std::regex begin_re("\\b" + name + R"(\s*\.\s*c?begin\s*\()");
      if (std::regex_search(line, begin_re)) {
        add("unordered-iter", line_no,
            "iterator over unordered container '" + name +
                "'; hash order is nondeterministic — copy into a sorted "
                "container before feeding output or metrics");
        break;
      }
    }
  }

  // catch-all needs to look past the catch line, so it runs on the whole
  // stripped text rather than line by line.
  auto catch_begin =
      std::sregex_iterator(stripped.begin(), stripped.end(), catch_all_re);
  for (auto it = catch_begin; it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (!detail::catch_block_records(stripped, pos)) {
      const std::size_t line_no =
          1 + static_cast<std::size_t>(
                  std::count(stripped.begin(),
                             stripped.begin() + static_cast<std::ptrdiff_t>(pos),
                             '\n'));
      add("catch-all", line_no,
          "catch (...) neither rethrows nor records the exception; use "
          "'throw;' or capture std::current_exception()");
    }
  }

  // Kernels: a DARL_KERNEL marker in front of a definition declares it a
  // hot kernel (the batched loops, the gemm micro-kernel and its loop nest,
  // the serve scheduler's per-request path). The marker is code, so it
  // survives stripping; the function name is the first identifier after it
  // that opens a parameter list. The marker's own #define is skipped, and
  // declarations and calls have no body. Like catch-all, this looks past
  // the signature line, so it runs on the whole stripped text.
  struct KernelDef {
    std::string name;
    std::size_t body_open = 0, body_close = 0;
  };
  static const std::regex kernel_def_re(
      R"(\bDARL_KERNEL\b[^;{}()]*?\b(\w+)\s*\()");
  std::vector<KernelDef> kernels;
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      kernel_def_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t marker = static_cast<std::size_t>(it->position());
    const std::size_t line_start =
        marker == 0 ? 0 : stripped.find_last_of('\n', marker - 1) + 1;
    const std::size_t first = stripped.find_first_not_of(" \t", line_start);
    if (first < marker && stripped[first] == '#') continue;  // #define
    const std::size_t paren =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    KernelDef def;
    def.name = it->str(1);
    if (detail::kernel_body_range(stripped, paren, def.body_open,
                                  def.body_close)) {
      kernels.push_back(std::move(def));
    }
  }
  // Report every match of `re` inside a kernel body under `rule`.
  auto flag_in_kernels = [&](const std::regex& re, const char* rule,
                             const std::string& what,
                             const std::string& advice) {
    for (const KernelDef& k : kernels) {
      const std::string body =
          stripped.substr(k.body_open, k.body_close - k.body_open + 1);
      for (auto m = std::sregex_iterator(body.begin(), body.end(), re);
           m != std::sregex_iterator(); ++m) {
        const std::size_t abs =
            k.body_open + static_cast<std::size_t>(m->position());
        const std::size_t line_no =
            1 + static_cast<std::size_t>(std::count(
                    stripped.begin(),
                    stripped.begin() + static_cast<std::ptrdiff_t>(abs), '\n'));
        add(rule, line_no, what + " '" + k.name + "'; " + advice);
      }
    }
  };

  // heap-alloc-in-kernel: no kernel may allocate.
  static const std::regex heap_alloc_re(
      R"(\bnew\b|[.>]\s*resize\s*\(|[.>]\s*push_back\s*\()");
  flag_in_kernels(heap_alloc_re, "heap-alloc-in-kernel",
                  "heap allocation in kernel",
                  "grow workspaces via an ensure_*/reshape helper before the "
                  "hot loop (suppress only for one-time workspace growth)");

  // metric-lookup-in-kernel: like heap-alloc-in-kernel, but for instrument
  // lookup — Registry::global() plus the name->instrument map walk under
  // the registration mutex must not run per batch/request. The DARL_*
  // macros are fine (they cache the reference in a function-local static
  // and spell COUNTER/GAUGE in upper case, so the lower-case patterns
  // below do not match them).
  static const std::regex metric_lookup_re(
      R"(\bRegistry\s*::\s*global\b|[.>]\s*(?:counter|gauge|histogram)\s*\()");
  flag_in_kernels(metric_lookup_re, "metric-lookup-in-kernel",
                  "instrument lookup in hot function",
                  "resolve the instrument once outside the loop (DARL_* "
                  "macro or a function-local static)");

  // metric-name: validate instrument names and label keys at the call
  // site. Scans the RAW content — the names are string literals, which
  // strip_noncode blanks. Tolerates an escaping backslash before the
  // quotes so registration calls quoted inside fixture string literals
  // are validated the same way as real code.
  static const std::regex metric_reg_re(
      R"([.>]\s*(?:counter|gauge|histogram)\s*\(\s*\\?"([^"\\]*)\\?")");
  static const std::regex metric_macro_re(
      R"(\bDARL_(?:COUNTER_ADD|GAUGE_ADD|GAUGE_SET)\s*\(\s*\\?"([^"\\]*)\\?")");
  static const std::regex label_key_re(R"(\{\s*\\?"([^"\\]*)\\?"\s*,)");
  auto valid_name = [](const std::string& s) {
    if (s.empty()) return false;
    for (const char c : s) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_' || c == '.';
      if (!ok) return false;
    }
    return true;
  };
  auto raw_line_of = [&content](std::size_t pos) {
    return 1 + static_cast<std::size_t>(
                   std::count(content.begin(),
                              content.begin() + static_cast<std::ptrdiff_t>(pos),
                              '\n'));
  };
  auto check_metric_name = [&](const std::sregex_iterator& m,
                               bool scan_labels) {
    const std::string name = m->str(1);
    const std::size_t pos = static_cast<std::size_t>(m->position());
    if (!valid_name(name)) {
      add("metric-name", raw_line_of(pos),
          "instrument name '" + name +
              "' violates [a-z0-9_.]+; the registry rejects it at runtime");
    }
    if (!scan_labels) return;
    // Label keys live between this call's name argument and the end of
    // the statement: validate every {"key", ...} pair up to the next ';'.
    const std::size_t arg_begin =
        pos + static_cast<std::size_t>(m->length());
    std::size_t arg_end = content.find(';', arg_begin);
    if (arg_end == std::string::npos) arg_end = content.size();
    const std::string args = content.substr(arg_begin, arg_end - arg_begin);
    auto lk = std::sregex_iterator(args.begin(), args.end(), label_key_re);
    for (; lk != std::sregex_iterator(); ++lk) {
      const std::string key = lk->str(1);
      if (!valid_name(key)) {
        add("metric-name",
            raw_line_of(arg_begin + static_cast<std::size_t>(lk->position())),
            "label key '" + key +
                "' violates [a-z0-9_.]+; the registry rejects it at runtime");
      }
    }
  };
  for (auto it = std::sregex_iterator(content.begin(), content.end(),
                                      metric_reg_re);
       it != std::sregex_iterator(); ++it) {
    check_metric_name(it, /*scan_labels=*/true);
  }
  for (auto it = std::sregex_iterator(content.begin(), content.end(),
                                      metric_macro_re);
       it != std::sregex_iterator(); ++it) {
    check_metric_name(it, /*scan_labels=*/false);
  }

  if (detail::is_header(path) && !std::regex_search(stripped, pragma_once_re)) {
    add("pragma-once", 1, "header is missing #pragma once");
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

// ---------------------------------------------------------------------------
// Suppressions

/// Parse a suppression file. Malformed lines are reported into `errors`
/// (message includes the 1-based line number) rather than silently skipped.
inline std::vector<Suppression> parse_suppressions(
    const std::string& content, std::vector<std::string>& errors) {
  std::vector<Suppression> out;
  const std::vector<std::string> lines = split_lines(content);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t sep = line.find(" -- ");
    if (sep == std::string::npos) {
      errors.push_back("suppression line " + std::to_string(i + 1) +
                       ": missing ' -- <justification>'");
      continue;
    }
    std::string head = line.substr(0, sep);
    std::string why = line.substr(sep + 4);
    const std::size_t why_b = why.find_first_not_of(" \t");
    why = why_b == std::string::npos ? "" : why.substr(why_b);
    std::size_t ws = head.find_first_of(" \t", first);
    if (ws == std::string::npos || why.empty()) {
      errors.push_back("suppression line " + std::to_string(i + 1) +
                       ": expected '<rule> <path-suffix> -- <justification>'");
      continue;
    }
    Suppression s;
    s.rule = head.substr(first, ws - first);
    const std::size_t path_b = head.find_first_not_of(" \t", ws);
    if (path_b == std::string::npos) {
      errors.push_back("suppression line " + std::to_string(i + 1) +
                       ": missing path suffix");
      continue;
    }
    const std::size_t path_e = head.find_last_not_of(" \t");
    s.path_suffix = normalize_path(head.substr(path_b, path_e - path_b + 1));
    s.justification = why;
    s.line = i + 1;
    out.push_back(std::move(s));
  }
  return out;
}

inline bool suppression_matches(const Suppression& s, const Finding& f) {
  if (s.rule != f.rule) return false;
  if (s.path_suffix.size() > f.path.size()) return false;
  return f.path.compare(f.path.size() - s.path_suffix.size(),
                        s.path_suffix.size(), s.path_suffix) == 0;
}

/// A finding plus whether a suppression claimed it — the unit both tools'
/// --format=json output serializes, so suppressed findings stay visible
/// to CI/editor consumers instead of silently vanishing.
struct AnnotatedFinding {
  Finding finding;
  bool suppressed = false;
};

/// Match every finding against the suppression list, marking matching
/// suppressions as used. Order of the input findings is preserved.
inline std::vector<AnnotatedFinding> annotate_suppressions(
    std::vector<Finding> findings, std::vector<Suppression>& suppressions) {
  std::vector<AnnotatedFinding> out;
  out.reserve(findings.size());
  for (auto& f : findings) {
    AnnotatedFinding af;
    for (auto& s : suppressions) {
      if (suppression_matches(s, f)) {
        s.used = true;
        af.suppressed = true;
      }
    }
    af.finding = std::move(f);
    out.push_back(std::move(af));
  }
  return out;
}

/// Partition findings into (returned) unsuppressed findings, marking every
/// matching suppression as used.
inline std::vector<Finding> apply_suppressions(
    std::vector<Finding> findings, std::vector<Suppression>& suppressions) {
  std::vector<Finding> unsuppressed;
  for (auto& af :
       annotate_suppressions(std::move(findings), suppressions)) {
    if (!af.suppressed) unsuppressed.push_back(std::move(af.finding));
  }
  return unsuppressed;
}

// ---------------------------------------------------------------------------
// JSON output (--format=json in darl_lint / darl_verify)

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Stable machine-readable schema shared by both tools: a JSON array of
/// {rule, file, line, message, suppressed} objects, one per finding,
/// suppressed findings included.
inline std::string findings_json(const std::vector<AnnotatedFinding>& all) {
  std::string out = "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Finding& f = all[i].finding;
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"rule\": \"" + json_escape(f.rule) + "\", \"file\": \"" +
           json_escape(f.path) +
           "\", \"line\": " + std::to_string(f.line) + ", \"message\": \"" +
           json_escape(f.message) + "\", \"suppressed\": " +
           (all[i].suppressed ? "true" : "false") + "}";
  }
  out += all.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace darl::lint
