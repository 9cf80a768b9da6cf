// darl_lint — project-specific static analysis for the darl tree.
//
//   darl_lint [--root DIR] [--supp FILE] [--format human|json]
//             [--list-rules] [dir...]
//
// Scans src/, tools/, bench/, tests/ and examples/ (or the listed
// directories) for the banned patterns and invariants described in
// tools/lint_engine.hpp. Exceptions live in tools/darl_lint.supp, one
// justified entry per rule+file; a suppression that matches nothing is
// itself an error so the file only ever shrinks.
//
// Exit codes: 0 clean, 1 findings / unused or malformed suppressions,
// 2 usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "lint_engine.hpp"

namespace {

namespace fs = std::filesystem;
using namespace darl::lint;

struct Options {
  std::string root = ".";
  std::string supp_path = "tools/darl_lint.supp";
  std::string format = "human";
  std::vector<std::string> dirs;
  bool list_rules = false;
};

constexpr const char* kDefaultDirs[] = {"src", "tools", "bench", "tests",
                                        "examples"};

void print_rules() {
  std::printf("darl_lint rules:\n");
  for (const Rule& rule : kRules) {
    std::printf("  %-24s %s\n", rule.id, rule.summary);
  }
}

[[noreturn]] void usage(int code) {
  std::printf(
      "darl_lint — project-specific static analysis\n"
      "\n"
      "  darl_lint [--root DIR] [--supp FILE] [--format human|json]\n"
      "            [--list-rules] [dir...]\n"
      "\n"
      "  --root DIR    repository root to scan from (default .)\n"
      "  --supp FILE   suppression file, relative to root\n"
      "                (default tools/darl_lint.supp; \"\" disables)\n"
      "  --format FMT  human (default) or json — json emits a stable\n"
      "                array of {rule, file, line, message, suppressed}\n"
      "  --list-rules  print the rule table and exit\n"
      "  dir...        directories to scan, relative to root\n"
      "                (default: src tools bench tests examples)\n");
  std::exit(code);
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need_value = [&](int& j) -> std::string {
      if (j + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[j]);
        usage(2);
      }
      return argv[++j];
    };
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--list-rules") opt.list_rules = true;
    else if (a == "--root") opt.root = need_value(i);
    else if (a == "--supp") opt.supp_path = need_value(i);
    else if (a == "--format") opt.format = need_value(i);
    else if (a.rfind("--format=", 0) == 0) opt.format = a.substr(9);
    else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      usage(2);
    } else {
      opt.dirs.push_back(a);
    }
  }
  if (opt.list_rules) {
    print_rules();
    return 0;
  }
  if (opt.format != "human" && opt.format != "json") {
    std::fprintf(stderr, "invalid --format '%s' (human|json)\n",
                 opt.format.c_str());
    usage(2);
  }
  if (opt.dirs.empty()) {
    for (const char* d : kDefaultDirs) {
      if (fs::is_directory(fs::path(opt.root) / d)) opt.dirs.push_back(d);
    }
  }

  // Gather the file list (sorted, so output and suppression matching are
  // deterministic).
  std::vector<std::string> files;
  for (const auto& dir : opt.dirs) {
    const fs::path base = fs::path(opt.root) / dir;
    if (!fs::is_directory(base)) {
      std::fprintf(stderr, "darl_lint: not a directory: %s\n",
                   base.string().c_str());
      return 2;
    }
    std::error_code ec;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) {
        std::fprintf(stderr, "darl_lint: walk error under %s: %s\n",
                     base.string().c_str(), ec.message().c_str());
        return 2;
      }
      if (it->is_regular_file() && lintable(it->path())) {
        // Report paths relative to the root so suppressions are stable.
        files.push_back(
            normalize_path(fs::relative(it->path(), opt.root).string()));
      }
    }
  }
  std::sort(files.begin(), files.end());

  // Pass 1: harvest unordered-container declarations project-wide, so a
  // loop in a .cpp over a member declared in its header is still caught.
  ScanContext ctx;
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const auto& rel : files) {
    std::string content;
    if (!read_file(fs::path(opt.root) / rel, content)) {
      std::fprintf(stderr, "darl_lint: cannot read %s\n", rel.c_str());
      return 2;
    }
    collect_unordered_names(strip_noncode(content), ctx.unordered_names);
    sources.emplace_back(rel, std::move(content));
  }

  // Pass 2: scan.
  std::vector<Finding> findings;
  for (const auto& [rel, content] : sources) {
    auto file_findings = scan_source(rel, content, ctx);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }

  // Suppressions.
  std::vector<Suppression> suppressions;
  std::vector<std::string> supp_errors;
  if (!opt.supp_path.empty()) {
    const fs::path supp_file = fs::path(opt.root) / opt.supp_path;
    std::string content;
    if (fs::exists(supp_file)) {
      if (!read_file(supp_file, content)) {
        std::fprintf(stderr, "darl_lint: cannot read %s\n",
                     supp_file.string().c_str());
        return 2;
      }
      suppressions = parse_suppressions(content, supp_errors);
    }
  }
  const std::vector<AnnotatedFinding> annotated =
      annotate_suppressions(std::move(findings), suppressions);

  bool failed = false;
  std::size_t unsuppressed = 0;
  for (const auto& e : supp_errors) {
    std::fprintf(stderr, "%s: %s\n", opt.supp_path.c_str(), e.c_str());
    failed = true;
  }
  for (const auto& af : annotated) {
    if (af.suppressed) continue;
    ++unsuppressed;
    failed = true;
    if (opt.format == "human") {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", af.finding.path.c_str(),
                   af.finding.line, af.finding.rule.c_str(),
                   af.finding.message.c_str());
    }
  }
  for (const auto& s : suppressions) {
    if (!s.used) {
      std::fprintf(stderr,
                   "%s:%zu: unused suppression '%s %s' — delete it (the "
                   "code is clean now)\n",
                   opt.supp_path.c_str(), s.line, s.rule.c_str(),
                   s.path_suffix.c_str());
      failed = true;
    }
  }

  if (opt.format == "json") {
    std::fputs(findings_json(annotated).c_str(), stdout);
  }
  std::fprintf(
      opt.format == "json" ? stderr : stdout,
      "darl_lint: %zu file(s), %zu finding(s): %zu suppressed, %zu "
      "unsuppressed%s\n",
      files.size(), annotated.size(), annotated.size() - unsuppressed,
      unsuppressed, failed ? " — FAIL" : "");
  return failed ? 1 : 0;
}
