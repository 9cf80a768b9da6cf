// tests/test_lint.cpp — the rule engine behind tools/darl_lint, driven
// against in-memory fixture snippets: one violating and one clean case per
// rule, plus stripper behavior and suppression-file parsing. Fixtures are
// raw strings, which the engine itself blanks out when darl_lint scans
// this file — the linter never flags its own test corpus.

#include "tools/lint_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "darl/common/kernel.hpp"

namespace lint = darl::lint;

namespace {

std::vector<std::string> rules_of(const std::vector<lint::Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<lint::Finding>& findings,
              const std::string& rule) {
  const auto rules = rules_of(findings);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

/// Whether `rule` has a row in the table darl_lint --list-rules prints.
bool listed(const std::string& rule) {
  return std::any_of(std::begin(lint::kRules), std::end(lint::kRules),
                     [&](const lint::Rule& r) { return rule == r.id; });
}

/// Scan a .cpp fixture (path chosen so no path-scoped rule kicks in).
/// Whatever it raises must be a rule of the table.
std::vector<lint::Finding> scan(const std::string& code,
                                const std::string& path = "src/darl/x.cpp") {
  std::vector<lint::Finding> findings = lint::scan_source(path, code);
  for (const auto& f : findings) EXPECT_TRUE(listed(f.rule)) << f.rule;
  return findings;
}

}  // namespace

// ---------------------------------------------------------------------------
// Stripper

TEST(LintStrip, BlanksCommentsAndStrings) {
  const std::string src = R"(int a; // new int
/* delete a; */ const char* s = "new int[3]";
char c = '"';)";
  const std::string stripped = lint::strip_noncode(src);
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_EQ(stripped.find("delete"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  // Line structure survives for line numbering.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
}

TEST(LintStrip, BlanksRawStringsAndKeepsDigitSeparators) {
  const std::string src =
      "auto re = R\"rx(catch (...) new delete)rx\";\nint n = 1'000'000;";
  const std::string stripped = lint::strip_noncode(src);
  EXPECT_EQ(stripped.find("catch"), std::string::npos);
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_NE(stripped.find("1'000'000"), std::string::npos);
}

TEST(LintStrip, ViolationsInsideLiteralsAreNotFindings) {
  EXPECT_TRUE(scan(R"fx(const char* doc = "call std::rand() and detach()";)fx")
                  .empty());
}

// ---------------------------------------------------------------------------
// banned-random

TEST(LintRandom, FlagsRandSrandRandomDevice) {
  EXPECT_TRUE(has_rule(scan("int x = std::rand();"), "banned-random"));
  EXPECT_TRUE(has_rule(scan("srand(42);"), "banned-random"));
  EXPECT_TRUE(has_rule(scan("std::random_device rd;"), "banned-random"));
}

TEST(LintRandom, CleanSeededRngAndSubstrings) {
  EXPECT_TRUE(scan("Rng rng(seed); double u = rng.uniform();").empty());
  // 'rand' embedded in identifiers must not trip the word boundary.
  EXPECT_TRUE(scan("int operand(int x); auto grand = operand(1);").empty());
}

// ---------------------------------------------------------------------------
// wall-clock

TEST(LintWallClock, FlagsArglessNowAndSystemClock) {
  EXPECT_TRUE(has_rule(scan("auto t = std::chrono::steady_clock::now();"),
                       "wall-clock"));
  EXPECT_TRUE(has_rule(scan("using clk = std::chrono::system_clock;"),
                       "wall-clock"));
}

TEST(LintWallClock, WhitelistedPathsAndStopwatchUseAreClean) {
  EXPECT_TRUE(lint::scan_source("src/darl/common/stopwatch.hpp",
                                "#pragma once\nauto t = clock::now();")
                  .empty());
  EXPECT_TRUE(lint::scan_source("src/darl/obs/trace.cpp",
                                "auto t = steady_clock::now();")
                  .empty());
  EXPECT_TRUE(scan("Stopwatch sw; double s = sw.seconds();").empty());
}

// ---------------------------------------------------------------------------
// unordered-iter

TEST(LintUnordered, FlagsRangeForOverUnorderedMember) {
  const std::string code = R"(
std::unordered_map<std::string, double> metrics_;
void dump() {
  for (const auto& kv : metrics_) emit(kv);
}
)";
  const auto findings = scan(code);
  ASSERT_TRUE(has_rule(findings, "unordered-iter"));
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintUnordered, FlagsExplicitBeginAndCrossFileContext) {
  lint::ScanContext ctx;
  ctx.unordered_names.push_back("seen_keys_");
  const auto findings = lint::scan_source(
      "src/darl/x.cpp",
      "for (auto it = seen_keys_.begin(); it != seen_keys_.end(); ++it) {}",
      ctx);
  EXPECT_TRUE(has_rule(findings, "unordered-iter"));
}

TEST(LintUnordered, CleanOrderedMapAndMembershipTests) {
  EXPECT_TRUE(scan(R"(
std::map<std::string, double> metrics_;
std::unordered_set<std::string> seen_;
void dump() {
  for (const auto& kv : metrics_) emit(kv);
  if (seen_.count(key) == 0) seen_.insert(key);
}
)")
                  .empty());
}

// ---------------------------------------------------------------------------
// raw-new-delete

TEST(LintNewDelete, FlagsRawNewAndDelete) {
  EXPECT_TRUE(has_rule(scan("int* p = new int;"), "raw-new-delete"));
  EXPECT_TRUE(has_rule(scan("delete p;"), "raw-new-delete"));
  EXPECT_TRUE(has_rule(scan("delete[] arr;"), "raw-new-delete"));
}

// A header name survives stripping; an include line is not an expression.
TEST(LintNewDelete, CleanIncludeOfTheNewHeader) {
  EXPECT_TRUE(scan("#include <new>").empty());
  EXPECT_TRUE(scan("  #  include <new>  // std::bad_alloc").empty());
  const auto findings = scan("#include <new>\nint* p = new int;");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-new-delete");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintNewDelete, CleanDeletedFunctionsAndIdentifiers) {
  EXPECT_TRUE(scan("Foo(const Foo&) = delete;").empty());
  EXPECT_TRUE(scan("auto p = std::make_unique<int>(3);").empty());
  EXPECT_TRUE(scan("int new_rung = renew(delete_count);").empty());
}

// ---------------------------------------------------------------------------
// float-literal

TEST(LintFloat, FlagsFloatLiteralsInNumericDirs) {
  EXPECT_TRUE(has_rule(
      lint::scan_source("src/darl/ode/rk.cpp", "double h = 0.5f;"),
      "float-literal"));
  EXPECT_TRUE(has_rule(
      lint::scan_source("src/darl/nn/mlp.cpp", "auto lr = 1e-3f;"),
      "float-literal"));
}

TEST(LintFloat, CleanDoubleLiteralsAndOtherDirs) {
  EXPECT_TRUE(lint::scan_source("src/darl/ode/rk.cpp",
                                "double h = 0.5; double k = 1e-3;")
                  .empty());
  // Hex integers ending in f are not float literals.
  EXPECT_TRUE(lint::scan_source("src/darl/rl/ppo.cpp", "int m = 0x1e5f;")
                  .empty());
  // Outside the double-precision dirs the rule does not apply.
  EXPECT_TRUE(scan("float blend = 0.5f;").empty());
}

// ---------------------------------------------------------------------------
// std-endl

TEST(LintEndl, FlagsStdEndl) {
  EXPECT_TRUE(has_rule(scan("out << x << std::endl;"), "std-endl"));
}

TEST(LintEndl, CleanNewline) {
  EXPECT_TRUE(scan(R"(out << x << "\n";)").empty());
}

// ---------------------------------------------------------------------------
// pragma-once

TEST(LintPragmaOnce, FlagsHeaderWithoutPragma) {
  const auto findings =
      lint::scan_source("src/darl/x.hpp", "int answer();\n");
  EXPECT_TRUE(has_rule(findings, "pragma-once"));
}

TEST(LintPragmaOnce, CleanHeaderAndSourceFile) {
  EXPECT_TRUE(
      lint::scan_source("src/darl/x.hpp", "#pragma once\nint answer();\n")
          .empty());
  EXPECT_TRUE(lint::scan_source("src/darl/x.cpp", "int answer();\n").empty());
}

// ---------------------------------------------------------------------------
// catch-all

TEST(LintCatchAll, FlagsSwallowedException) {
  const std::string code = R"(
void f() {
  try { g(); } catch (...) {
    count += 1;
  }
}
)";
  const auto findings = scan(code);
  ASSERT_TRUE(has_rule(findings, "catch-all"));
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintCatchAll, CleanRethrowAndRecording) {
  EXPECT_TRUE(scan(R"(
void f() {
  try { g(); } catch (...) { throw; }
  try { g(); } catch (...) { err = std::current_exception(); }
}
)")
                  .empty());
  // Typed catches are out of scope for this rule.
  EXPECT_TRUE(
      scan("try { g(); } catch (const std::exception& e) { report(e); }")
          .empty());
}

// ---------------------------------------------------------------------------
// detached-thread

TEST(LintDetach, FlagsDetach) {
  const auto findings = scan("std::thread t(work); t.detach();");
  EXPECT_TRUE(has_rule(findings, "detached-thread"));
}

TEST(LintDetach, CleanJoin) {
  EXPECT_TRUE(scan("std::thread t(work); t.join();").empty());
}

// ---------------------------------------------------------------------------
// thread-in-numeric-code

TEST(LintThreadInNumericCode, FlagsStdThreadInLinalgAndNn) {
  const std::string code = "std::thread t(work); t.join();";
  EXPECT_TRUE(has_rule(scan(code, "src/darl/linalg/matrix.cpp"),
                       "thread-in-numeric-code"));
  EXPECT_TRUE(has_rule(scan(code, "src/darl/nn/mlp.cpp"),
                       "thread-in-numeric-code"));
  // A member declaration is just as banned as a construction: the rule is
  // about who owns threads, not how they are spelled.
  EXPECT_TRUE(has_rule(scan("std::vector<std::thread> workers_;",
                            "src/darl/nn/mlp.hpp"),
                       "thread-in-numeric-code"));
  // No file in those directories is exempt.
  EXPECT_TRUE(has_rule(scan(code, "src/darl/linalg/thread_pool.cpp"),
                       "thread-in-numeric-code"));
}

TEST(LintThreadInNumericCode, CleanOutsideLinalgAndNn) {
  // Outside linalg/nn the rule does not apply (serve owns workers).
  EXPECT_FALSE(has_rule(scan("std::thread t(work); t.join();",
                             "src/darl/serve/batch_scheduler.cpp"),
                        "thread-in-numeric-code"));
}

// ---------------------------------------------------------------------------
// naked-socket-call

TEST(LintSocket, FlagsRawSocketCallsOutsideNet) {
  EXPECT_TRUE(has_rule(scan("const ssize_t n = ::recv(fd, buf, cap, 0);",
                            "src/darl/obs/export.cpp"),
                       "naked-socket-call"));
  EXPECT_TRUE(has_rule(scan("::send(fd, data, len, MSG_NOSIGNAL);",
                            "tests/test_obs_live.cpp"),
               "naked-socket-call"));
  EXPECT_TRUE(has_rule(scan("int c = ::accept(listen_fd, nullptr, nullptr);",
                            "tools/darl_worker.cpp"),
               "naked-socket-call"));
}

TEST(LintSocket, CleanInsideNetHelpersAndNonSyscallNames) {
  const std::string code = "const ssize_t n = ::recv(fd, buf, cap, 0);";
  // darl/net is the one sanctioned home for the raw calls.
  EXPECT_FALSE(has_rule(scan(code, "src/darl/net/socket.cpp"),
                        "naked-socket-call"));
  // The helpers themselves (and method calls) are not raw syscalls.
  EXPECT_TRUE(scan("net::send_all(fd, payload); net::recv_exact(fd, b, n); "
                   "channel.send(type, payload);",
                   "src/darl/serve/batch_scheduler.cpp")
                  .empty());
  // A quoted or commented call never counts (stripped source).
  EXPECT_TRUE(scan("// ::recv(fd, buf, cap, 0);\n"
                   "const char* doc = \"::send(fd, p, n, 0)\";")
                  .empty());
}

// ---------------------------------------------------------------------------
// libm-call — src/ calls darl::math::, not the host's libm

TEST(LintLibmCall, FlagsStdGlobalAndUnqualifiedCalls) {
  for (const char* code :
       {"const double y = std::tanh(x);", "return std::exp(a - m);",
        "lp -= std :: log(1.0 - t * t);", "v = ::pow(err, -0.2);",
        "obs[1] = cos(rel);", "const double b = atan2(-y, -x) + hypot(x, y);",
        "double e = std::expm1(x) + std::erf(x) + std::lgamma(x);",
        "float s = sinf(a);", "return log1p(x);"}) {
    EXPECT_TRUE(has_rule(scan(code), "libm-call")) << code;
  }
  // Distributions that call libm's log/exp under the hood.
  for (const char* code :
       {"std::normal_distribution<double> dist(0.0, 1.0);",
        "return std::exponential_distribution<double>(rate)(engine_);",
        "std::gamma_distribution<> g(2.0);",
        "std::poisson_distribution<int> p(4.0);"}) {
    EXPECT_TRUE(has_rule(scan(code), "libm-call")) << code;
  }
  // Headers in src/ count too.
  EXPECT_TRUE(has_rule(scan("return -std::log(u) * mean;", "src/darl/serve/arrival.hpp"),
                       "libm-call"));
}

TEST(LintLibmCall, CleanOwnedExactAndOutsideSrc) {
  // darl's own functions, through any qualifier, and member calls.
  EXPECT_TRUE(scan("const double y = math::tanh(x) + darl::math::exp(a);\n"
                   "s = math::sin(psi); logger.log(msg); p->exp(2);\n"
                   "const double r = math::pow(err, -0.2) * math::hypot(x, y);")
                  .empty());
  // The exact functions stay allowed, as do uniform draws and names that
  // merely contain a libm name.
  EXPECT_TRUE(scan("const double s = std::sqrt(v) + std::fabs(x) + std::floor(x) +"
                   " std::fmod(a, 2.0) + std::ldexp(m, e);\n"
                   "std::uniform_real_distribution<double>(0.0, 1.0)(engine_);\n"
                   "std::uniform_int_distribution<int> d(0, 3);\n"
                   "std::bernoulli_distribution(p)(engine_);\n"
                   "double log_prob(const Vec& x); expected_cost(x); cosine(y);")
                  .empty());
  // The owning module, and code outside src/.
  const std::string code = "return std::tanh(x) + std::exp(y);";
  EXPECT_FALSE(has_rule(scan(code, "src/darl/common/elementary.cpp"), "libm-call"));
  EXPECT_FALSE(has_rule(scan(code, "tests/test_nn.cpp"), "libm-call"));
  EXPECT_FALSE(has_rule(scan(code, "tools/darl_study.cpp"), "libm-call"));
  // A quoted or commented call never counts (stripped source).
  EXPECT_TRUE(scan("// std::tanh(x)\nconst char* doc = \"exp(x)\";").empty());
}

// ---------------------------------------------------------------------------
// heap-alloc-in-kernel — kernels are the definitions marked DARL_KERNEL

TEST(LintKernelAlloc, FlagsAllocationsInsideBatchAndGemmBodies) {
  const std::string code = R"fx(
DARL_KERNEL const Matrix& Mlp::forward_batch(const Matrix& x) {
  ws_act_.resize(layers + 1);
  return ws_act_.back();
}
DARL_KERNEL void Matrix::gemm(double alpha, const Matrix& a, bool ta,
                              const Matrix& b, bool tb, Matrix& c) {
  scratch_.push_back(0.0);
  double* tmp = new double[c.size()];
}
)fx";
  const auto findings = scan(code);
  std::size_t kernel_hits = 0;
  for (const auto& f : findings) {
    if (f.rule == "heap-alloc-in-kernel") ++kernel_hits;
  }
  EXPECT_EQ(kernel_hits, 3u);  // resize, push_back, new
  // The resize on line 3 belongs to forward_batch.
  ASSERT_TRUE(has_rule(findings, "heap-alloc-in-kernel"));
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("forward_batch"), std::string::npos);
}

TEST(LintKernelAlloc, PointerAccessAndConstQualifierAreCovered) {
  const std::string code = R"fx(
DARL_KERNEL const Matrix& Mlp::evaluate_batch(const Matrix& x) const {
  spare->resize(batch * cols);
  return *spare;
}
)fx";
  EXPECT_TRUE(has_rule(scan(code), "heap-alloc-in-kernel"));
}

TEST(LintKernelAlloc, FlagsMarkedMicroKernelWhateverItsName) {
  // The marker, not the name, makes a kernel: a template behind a C++
  // attribute and a target-attributed instantiation are both found, and
  // the finding names the function, not an attribute.
  const std::string code = R"fx(
template <class V, std::size_t R>
DARL_KERNEL [[gnu::always_inline]] inline void micro_block(const double* b) {
  acc.push_back(b[0]);
}
__attribute__((target("avx512f"))) DARL_KERNEL void gemm_rows_v8(
    const GemmOperands& g, std::size_t r0, std::size_t r1) {
  tail.resize(g.n);
}
)fx";
  const auto findings = scan(code);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "heap-alloc-in-kernel");
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_NE(findings[0].message.find("'micro_block'"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "heap-alloc-in-kernel");
  EXPECT_EQ(findings[1].line, 8u);
  EXPECT_NE(findings[1].message.find("'gemm_rows_v8'"), std::string::npos);
}

TEST(LintKernelAlloc, CleanKernelsCallsAndOtherFunctions) {
  // reshape (capacity-reusing) is the sanctioned growth path; calls to a
  // kernel and allocations in unmarked functions are out of scope.
  EXPECT_TRUE(scan(R"fx(
DARL_KERNEL const Matrix& Mlp::backward_batch(const Matrix& g) {
  spare->reshape(batch, cols);
  Matrix::gemm(1.0, *delta, true, ws_act_[li], false, grad_w_[li]);
  return *delta;
}
void Mlp::ensure_forward_ws(std::size_t batch) {
  ws_act_.resize(layers + 1);
}
void caller() {
  net.forward_batch(x);
  out.push_back(result);
}
)fx")
                  .empty());
  // Declarations have no body to scan.
  EXPECT_TRUE(
      scan("DARL_KERNEL static void gemm(double alpha, const Matrix& a,\n"
           "    bool ta, const Matrix& b, bool tb, Matrix& c);")
          .empty());
  // Unmarked definitions are not kernels, whatever their name; the
  // marker's own #define is not a definition either.
  EXPECT_TRUE(scan(R"fx(
#define DARL_KERNEL
void gemm(Matrix& c) { table.push_back(kernel); }
const Matrix& Mlp::forward_batch(const Matrix& x) { ws_.resize(2); }
void dispatch_loop() { queue.push_back(job); }
)fx")
                  .empty());
}

TEST(LintKernelAlloc, FlagsAllocationsInDispatchBodies) {
  // The serve scheduler's dispatch path is per-request hot code; growing
  // containers there would allocate on every micro-batch.
  const std::string code = R"fx(
DARL_KERNEL void BatchScheduler::dispatch_loop(Worker& worker) {
  worker.batch.push_back(queue_.front());
}
)fx";
  const auto findings = scan(code);
  ASSERT_TRUE(has_rule(findings, "heap-alloc-in-kernel"));
  EXPECT_NE(findings[0].message.find("dispatch_loop"), std::string::npos);
}

TEST(LintKernelAlloc, CleanDispatchBodyAndCallSites) {
  // Index assignment into a preallocated slot plus pop_front is the
  // sanctioned dispatch pattern; calls and declarations have no body.
  EXPECT_TRUE(scan(R"fx(
DARL_KERNEL void BatchScheduler::dispatch_loop(Worker& worker) {
  worker.batch[i] = queue_.front();
  queue_.pop_front();
}
void spawn(Worker* w) {
  w->thread = std::thread([this, w] { dispatch_loop(*w); });
}
DARL_KERNEL void dispatch_once(Worker& worker);
)fx")
                  .empty());
}

#ifndef __clang__
#define DARL_TEST_STR2(x) #x
#define DARL_TEST_STR(x) DARL_TEST_STR2(x)
TEST(LintKernelAlloc, MarkerExpandsToNothing) {
  // DARL_KERNEL exists for the lint alone and never changes codegen.
  EXPECT_STREQ(DARL_TEST_STR(DARL_KERNEL), "");
}
#undef DARL_TEST_STR
#undef DARL_TEST_STR2
#endif

// ---------------------------------------------------------------------------
// metric-name

// The bad-name fixtures are assembled by string concatenation: this rule
// scans RAW file content (the names live in string literals the stripper
// blanks), so a contiguous bad registration call written here verbatim
// would be a finding in the linter's own test file.

TEST(LintMetricName, FlagsBadInstrumentNames) {
  const std::string bad_reg =
      std::string("obs::Registry::global().count") +
      "er(\"Serve.Requests\").add(1);";
  const auto findings = scan(bad_reg);
  ASSERT_TRUE(has_rule(findings, "metric-name"));
  EXPECT_NE(findings[0].message.find("Serve.Requests"), std::string::npos);

  const std::string bad_macro =
      std::string("DARL_COUNTER") + "_ADD(\"serve bad\", 1);";
  EXPECT_TRUE(has_rule(scan(bad_macro), "metric-name"));
}

TEST(LintMetricName, FlagsBadLabelKeys) {
  const std::string bad_label = std::string("reg.gau") +
                                "ge(\"serve.depth\", {{\"Bad-Key\", v}});";
  const auto findings = scan(bad_label);
  ASSERT_TRUE(has_rule(findings, "metric-name"));
  EXPECT_NE(findings[0].message.find("Bad-Key"), std::string::npos);
}

TEST(LintMetricName, CleanNamesLabelsAndNonLiteralArgs) {
  EXPECT_TRUE(
      scan("reg.counter(\"serve.client_requests\", {{\"tenant\", t}});")
          .empty());
  EXPECT_TRUE(scan("DARL_GAUGE_SET(\"serve.queue_depth\", depth);").empty());
  // Histogram bounds lists are not label pairs.
  EXPECT_TRUE(
      scan("reg.histogram(\"serve.latency_us\", {1.0, 2.0, 4.0});").empty());
  // A name passed through a variable is checked at runtime, not here.
  EXPECT_TRUE(scan("reg.counter(name_var).add(1);").empty());
}

// ---------------------------------------------------------------------------
// metric-lookup-in-kernel

TEST(LintMetricLookup, FlagsRegistryLookupInKernelBodies) {
  const std::string code = R"fx(
DARL_KERNEL void BatchScheduler::execute_batch(Worker& worker, std::size_t count) {
  obs::Registry::global().counter(kServed).add(count);
}
)fx";
  const auto findings = scan(code);
  ASSERT_TRUE(has_rule(findings, "metric-lookup-in-kernel"));
  EXPECT_NE(findings[0].message.find("execute_batch"), std::string::npos);
}

TEST(LintMetricLookup, CleanMacrosStaticHelpersAndNonKernelLookups) {
  // The DARL_* macros cache the instrument in a function-local static, and
  // lookups in unmarked (non-kernel) functions are out of scope.
  EXPECT_TRUE(scan(R"fx(
DARL_KERNEL void BatchScheduler::execute_batch(Worker& worker, std::size_t count) {
  DARL_COUNTER_ADD("serve.served", count);
  latency_histogram().observe(elapsed_us);
}
obs::Histogram& latency_histogram() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.latency_us", kBounds);
  return h;
}
)fx")
                  .empty());
}

// ---------------------------------------------------------------------------
// Suppression parsing and matching

TEST(LintSupp, ParsesEntriesSkipsCommentsReportsMalformed) {
  const std::string file = R"(# header comment

raw-new-delete src/darl/obs/metrics.cpp -- leaked singleton
catch-all study.cpp missing separator
detached-thread src/darl/core/study.cpp --
)";
  std::vector<std::string> errors;
  const auto supps = lint::parse_suppressions(file, errors);
  ASSERT_EQ(supps.size(), 1u);
  EXPECT_EQ(supps[0].rule, "raw-new-delete");
  EXPECT_EQ(supps[0].path_suffix, "src/darl/obs/metrics.cpp");
  EXPECT_EQ(supps[0].justification, "leaked singleton");
  EXPECT_EQ(supps[0].line, 3u);
  ASSERT_EQ(errors.size(), 2u);  // missing ' -- ' and empty justification
}

TEST(LintSupp, MatchesOnRuleAndPathSuffix) {
  lint::Suppression s;
  s.rule = "raw-new-delete";
  s.path_suffix = "obs/metrics.cpp";
  lint::Finding hit{"raw-new-delete", "src/darl/obs/metrics.cpp", 12, ""};
  lint::Finding other_rule{"catch-all", "src/darl/obs/metrics.cpp", 12, ""};
  lint::Finding other_path{"raw-new-delete", "src/darl/obs/trace.cpp", 12, ""};
  EXPECT_TRUE(lint::suppression_matches(s, hit));
  EXPECT_FALSE(lint::suppression_matches(s, other_rule));
  EXPECT_FALSE(lint::suppression_matches(s, other_path));
}

TEST(LintSupp, ApplyMarksUsedAndKeepsUnmatchedFindings) {
  std::vector<lint::Finding> findings{
      {"raw-new-delete", "src/darl/obs/metrics.cpp", 12, "m"},
      {"detached-thread", "src/darl/core/study.cpp", 99, "m"},
  };
  std::vector<std::string> errors;
  auto supps = lint::parse_suppressions(
      "raw-new-delete src/darl/obs/metrics.cpp -- leaked singleton\n"
      "std-endl src/darl/common/table.cpp -- stale entry\n",
      errors);
  ASSERT_EQ(supps.size(), 2u);
  ASSERT_TRUE(errors.empty());
  const auto left = lint::apply_suppressions(std::move(findings), supps);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].rule, "detached-thread");
  EXPECT_TRUE(supps[0].used);
  EXPECT_FALSE(supps[1].used);  // the unused entry the CLI turns into an error
}

// ---------------------------------------------------------------------------
// End-to-end: a fixture with several violations reports them sorted by line

TEST(LintScan, FindingsAreSortedByLine) {
  const std::string code = R"(
int* p = new int;
std::thread t(w); t.detach();
int r = std::rand();
)";
  const auto findings = scan(code);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "raw-new-delete");
  EXPECT_EQ(findings[1].rule, "detached-thread");
  EXPECT_EQ(findings[2].rule, "banned-random");
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(),
      [](const lint::Finding& a, const lint::Finding& b) {
        return a.line < b.line;
      }));
}

// ---------------------------------------------------------------------------
// The rule table --list-rules prints

TEST(LintRules, TheTableNamesEveryRuleTheFixturesRaise) {
  // One violating fixture per rule, each at a path where its rule applies.
  const std::string bad_metric =
      std::string("DARL_COUNTER") + "_ADD(\"Bad Name\", 1);";
  const std::vector<std::pair<std::string, std::string>> fixtures = {
      {"src/darl/x.cpp", "int x = std::rand();"},
      {"src/darl/x.cpp", "auto t = std::chrono::steady_clock::now();"},
      {"src/darl/x.cpp",
       "std::unordered_map<int, double> m_;\n"
       "void f() { for (const auto& kv : m_) g(kv); }"},
      {"src/darl/x.cpp", "int* p = new int;"},
      {"src/darl/nn/mlp.cpp", "auto lr = 1e-3f;"},
      {"src/darl/x.cpp", "out << x << std::endl;"},
      {"src/darl/x.hpp", "int answer();\n"},
      {"src/darl/x.cpp",
       "void f() {\n  try { g(); } catch (...) {\n    n += 1;\n  }\n}"},
      {"src/darl/x.cpp", "std::thread t(work); t.detach();"},
      {"src/darl/linalg/matrix.cpp", "std::thread t(work); t.join();"},
      {"src/darl/x.cpp",
       "DARL_KERNEL void Mlp::forward_batch() {\n  ws_.resize(3);\n}"},
      {"src/darl/x.cpp", bad_metric},
      {"src/darl/x.cpp",
       "DARL_KERNEL void S::execute_batch() {\n"
       "  obs::Registry::global().counter(kServed).add(1);\n}"},
      {"src/darl/obs/export.cpp", "const ssize_t n = ::recv(fd, b, n, 0);"},
      {"src/darl/x.cpp", "const double y = std::tanh(x);"},
  };
  std::set<std::string> raised;
  for (const auto& [path, code] : fixtures) {
    for (const lint::Finding& f : lint::scan_source(path, code)) {
      raised.insert(f.rule);
    }
  }
  for (const std::string& rule : raised) {
    EXPECT_TRUE(listed(rule)) << rule << " is missing from lint::kRules";
  }
  // Every row is raised too, so the table lists no rule the engine lacks.
  EXPECT_EQ(raised.size(), std::size(lint::kRules));
}
