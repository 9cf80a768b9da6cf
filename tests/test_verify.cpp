// tests/test_verify.cpp — the rule engine behind tools/darl_verify,
// driven against in-memory fixture files: one violating and one clean
// case per rule, plus the harvest pass, lock tracking subtleties
// (unlock/relock, defer_lock, REQUIRES contracts), the lock-order graph
// with a seeded 3-cycle, and the JSON output helpers shared with
// darl_lint. Fixtures are raw strings, which strip_noncode blanks when
// either analyzer scans this file — the tools never flag their own
// test corpus.

#include "tools/verify_engine.hpp"

#include "darl/common/thread_safety.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lint = darl::lint;
namespace verify = darl::verify;

namespace {

bool has_rule(const std::vector<lint::Finding>& findings,
              const std::string& rule) {
  return std::any_of(
      findings.begin(), findings.end(),
      [&](const lint::Finding& f) { return f.rule == rule; });
}

std::size_t count_rule(const std::vector<lint::Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(),
      [&](const lint::Finding& f) { return f.rule == rule; }));
}

const lint::Finding* first_of(const std::vector<lint::Finding>& findings,
                              const std::string& rule) {
  for (const auto& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

/// Harvest every fixture, then check every fixture, then run the global
/// lock-order pass — the same two-pass shape darl_verify's main() drives.
std::vector<lint::Finding> analyze(
    const std::vector<std::pair<std::string, std::string>>& files) {
  verify::VerifyContext ctx;
  for (const auto& [path, code] : files) {
    verify::harvest_source(path, code, ctx);
  }
  std::vector<lint::Finding> findings;
  for (const auto& [path, code] : files) {
    auto f = verify::check_source(path, code, ctx);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  auto cycles = verify::check_lock_order(ctx);
  findings.insert(findings.end(), cycles.begin(), cycles.end());
  return findings;
}

std::vector<lint::Finding> analyze_one(const std::string& code,
                                       const std::string& path =
                                           "src/darl/rl/fixture.cpp") {
  return analyze({{path, code}});
}

}  // namespace

// ---------------------------------------------------------------------------
// The rule table --list-rules prints

TEST(VerifyRules, TheTableNamesEveryRuleTheFixturesRaise) {
  // One violating fixture per rule, analyzed together, each with its own
  // mutexes.
  const auto findings = analyze({{"src/darl/rl/guarded.cpp", R"fx(
#include <mutex>
class Q {
 public:
  int peek() { return x_; }
 private:
  std::mutex q_mu_;
  int x_ DARL_GUARDED_BY(q_mu_) = 0;
};
)fx"},
                                 {"src/darl/rl/order.cpp", R"fx(
#include <mutex>
std::mutex a_mu;
std::mutex b_mu;
void f() {
  std::lock_guard<std::mutex> g(a_mu);
  std::lock_guard<std::mutex> h(b_mu);
}
void g() {
  std::lock_guard<std::mutex> g(b_mu);
  std::lock_guard<std::mutex> h(a_mu);
}
)fx"},
                                 {"src/darl/rl/blocking.cpp", R"fx(
#include <chrono>
#include <mutex>
#include <thread>
std::mutex sleep_mu;
void f() {
  std::lock_guard<std::mutex> g(sleep_mu);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}
)fx"},
                                 {"src/darl/rl/cv.cpp", R"fx(
#include <condition_variable>
#include <mutex>
std::mutex cv_mu;
std::condition_variable cv;
void f() {
  std::unique_lock<std::mutex> lk(cv_mu);
  cv.wait(lk);
}
)fx"},
                                 {"src/darl/serve/s.cpp", R"fx(
#include <atomic>
class S {
 public:
  int peek() const { return v_.load(); }
 private:
  std::atomic<int> v_{0};
};
)fx"}});
  std::set<std::string> raised;
  for (const lint::Finding& f : findings) raised.insert(f.rule);
  for (const std::string& rule : raised) {
    EXPECT_TRUE(std::any_of(std::begin(verify::kRules), std::end(verify::kRules),
                            [&](const verify::Rule& r) { return rule == r.id; }))
        << rule << " is missing from verify::kRules";
  }
  // Every row is raised too, so the table lists no rule the engine lacks.
  EXPECT_EQ(raised.size(), std::size(verify::kRules));
}

// ---------------------------------------------------------------------------
// Harvest pass

TEST(VerifyHarvest, GuardedFieldQualifiedByEnclosingClass) {
  verify::VerifyContext ctx;
  verify::harvest_source("src/darl/rl/q.hpp", R"fx(
#pragma once
#include <mutex>
class Q {
 public:
  void bump();
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
)fx",
                         ctx);
  ASSERT_EQ(ctx.guarded_fields.size(), 1u);
  EXPECT_EQ(ctx.guarded_fields[0].cls, "Q");
  EXPECT_EQ(ctx.guarded_fields[0].field, "x_");
  EXPECT_EQ(ctx.guarded_fields[0].mutex, "Q::mu_");
  EXPECT_EQ(ctx.guarded_fields[0].path, "src/darl/rl/q.hpp");
  EXPECT_EQ(ctx.guarded_fields[0].line, 9u);
}

TEST(VerifyHarvest, RequiresContractAndAcquiredBeforeEdge) {
  verify::VerifyContext ctx;
  verify::harvest_source("src/darl/rl/q.hpp", R"fx(
class Q {
  void drain() DARL_REQUIRES(mu_);
  std::mutex outer_ DARL_ACQUIRED_BEFORE(mu_);
  std::mutex mu_;
};
)fx",
                         ctx);
  ASSERT_EQ(ctx.requires_fns.size(), 1u);
  EXPECT_EQ(ctx.requires_fns[0].cls, "Q");
  EXPECT_EQ(ctx.requires_fns[0].name, "drain");
  ASSERT_EQ(ctx.requires_fns[0].mutexes.size(), 1u);
  EXPECT_EQ(ctx.requires_fns[0].mutexes[0], "Q::mu_");
  ASSERT_EQ(ctx.edges.size(), 1u);
  EXPECT_EQ(ctx.edges[0].held, "Q::outer_");
  EXPECT_EQ(ctx.edges[0].acquired, "Q::mu_");
}

TEST(VerifyHarvest, MacroDefinitionsDoNotHarvest) {
  // The #define lines in thread_safety.hpp must not be read as a field
  // named "define" guarded by "mu".
  verify::VerifyContext ctx;
  verify::harvest_source("src/darl/common/ts.hpp", R"fx(
#define DARL_GUARDED_BY(mu) DARL_THREAD_ANNOTATION(guarded_by(mu))
#define DARL_ACQUIRED_BEFORE(...) DARL_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
)fx",
                         ctx);
  EXPECT_TRUE(ctx.guarded_fields.empty());
  EXPECT_TRUE(ctx.edges.empty());
}

// ---------------------------------------------------------------------------
// Rule: guarded-field

TEST(VerifyGuarded, BareAccessWithoutLockIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
class Q {
 public:
  int peek() { return x_; }
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
)fx");
  ASSERT_TRUE(has_rule(findings, "guarded-field"));
  const lint::Finding* f = first_of(findings, "guarded-field");
  EXPECT_EQ(f->line, 5u);
  EXPECT_NE(f->message.find("Q::mu_"), std::string::npos);
}

TEST(VerifyGuarded, AccessUnderLockGuardIsClean) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
class Q {
 public:
  int peek() {
    std::lock_guard<std::mutex> lock(mu_);
    return x_;
  }
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
)fx");
  EXPECT_FALSE(has_rule(findings, "guarded-field"));
}

TEST(VerifyGuarded, CrossFileHeaderAnnotationReachesCppDefinition) {
  const auto findings = analyze(
      {{"src/darl/rl/q.hpp", R"fx(
#pragma once
#include <mutex>
class Q {
 public:
  void bump();
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
)fx"},
       {"src/darl/rl/q.cpp", R"fx(
#include "q.hpp"
void Q::bump() { ++x_; }
)fx"}});
  ASSERT_TRUE(has_rule(findings, "guarded-field"));
  const lint::Finding* f = first_of(findings, "guarded-field");
  EXPECT_EQ(f->path, "src/darl/rl/q.cpp");
  // The message points back at the declaring header.
  EXPECT_NE(f->message.find("src/darl/rl/q.hpp:9"), std::string::npos);
}

TEST(VerifyGuarded, RequiresContractSeedsTheHeldSet) {
  const auto findings = analyze(
      {{"src/darl/rl/q.hpp", R"fx(
#pragma once
#include <mutex>
class Q {
 public:
  void bump_locked() DARL_REQUIRES(mu_);
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
)fx"},
       {"src/darl/rl/q.cpp", R"fx(
#include "q.hpp"
void Q::bump_locked() { ++x_; }
)fx"}});
  EXPECT_FALSE(has_rule(findings, "guarded-field"));
}

TEST(VerifyGuarded, ConstructorAndDestructorAreExempt) {
  // Out-of-line ctor/dtor definitions run before/after the object is
  // shared, so bare field writes there are fine. (Inline ctor bodies are
  // not recognized as function regions and would still flag — the repo
  // style is out-of-line definitions for any class that owns a mutex.)
  const auto findings = analyze_one(R"fx(
#include <mutex>
class Q {
 public:
  Q();
  ~Q();
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
Q::Q() { x_ = 1; }
Q::~Q() { x_ = 0; }
)fx");
  EXPECT_FALSE(has_rule(findings, "guarded-field"));
}

TEST(VerifyGuarded, OtherClassSameFieldNameIsNotFlagged) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
class Q {
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
class R {
 public:
  int peek() { return x_; }
 private:
  int x_ = 0;
};
)fx");
  EXPECT_FALSE(has_rule(findings, "guarded-field"));
}

TEST(VerifyGuarded, UnlockThenAccessIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
class Q {
 public:
  int drain() {
    std::unique_lock<std::mutex> lk(mu_);
    int snapshot = x_;
    lk.unlock();
    x_ = 0;
    lk.lock();
    x_ = snapshot;
    return snapshot;
  }
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
)fx");
  // Exactly the access in the unlocked window fires; the relocked one
  // does not.
  EXPECT_EQ(count_rule(findings, "guarded-field"), 1u);
  EXPECT_EQ(first_of(findings, "guarded-field")->line, 9u);
}

TEST(VerifyGuarded, DeferLockIsNotHeldUntilLocked) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
class Q {
 public:
  void late() {
    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
    x_ = 1;
    lk.lock();
    x_ = 2;
  }
 private:
  std::mutex mu_;
  int x_ DARL_GUARDED_BY(mu_) = 0;
};
)fx");
  EXPECT_EQ(count_rule(findings, "guarded-field"), 1u);
  EXPECT_EQ(first_of(findings, "guarded-field")->line, 7u);
}

// ---------------------------------------------------------------------------
// Rule: lock-order

TEST(VerifyLockOrder, SeededThreeCycleFailsWithWitnessPath) {
  // Three translation units, each locking a consistent-looking pair that
  // only globally forms a_mu -> b_mu -> c_mu -> a_mu.
  const auto findings = analyze(
      {{"src/darl/rl/f1.cpp", R"fx(
#include <mutex>
std::mutex a_mu;
std::mutex b_mu;
std::mutex c_mu;
void f1() {
  std::lock_guard<std::mutex> g(a_mu);
  std::lock_guard<std::mutex> h(b_mu);
}
)fx"},
       {"src/darl/rl/f2.cpp", R"fx(
#include <mutex>
extern std::mutex b_mu;
extern std::mutex c_mu;
void f2() {
  std::lock_guard<std::mutex> g(b_mu);
  std::lock_guard<std::mutex> h(c_mu);
}
)fx"},
       {"src/darl/rl/f3.cpp", R"fx(
#include <mutex>
extern std::mutex c_mu;
extern std::mutex a_mu;
void f3() {
  std::lock_guard<std::mutex> g(c_mu);
  std::lock_guard<std::mutex> h(a_mu);
}
)fx"}});
  ASSERT_EQ(count_rule(findings, "lock-order"), 1u);
  const std::string& msg = first_of(findings, "lock-order")->message;
  EXPECT_NE(msg.find("lock-order cycle:"), std::string::npos);
  EXPECT_NE(msg.find("a_mu"), std::string::npos);
  EXPECT_NE(msg.find("b_mu"), std::string::npos);
  EXPECT_NE(msg.find("c_mu"), std::string::npos);
  // Every arrow carries the file:line witness of the nested acquisition.
  EXPECT_NE(msg.find("src/darl/rl/f1.cpp:8"), std::string::npos);
  EXPECT_NE(msg.find("src/darl/rl/f2.cpp:7"), std::string::npos);
  EXPECT_NE(msg.find("src/darl/rl/f3.cpp:7"), std::string::npos);
}

TEST(VerifyLockOrder, ConsistentOrderIsClean) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
std::mutex a_mu;
std::mutex b_mu;
void f1() {
  std::lock_guard<std::mutex> g(a_mu);
  std::lock_guard<std::mutex> h(b_mu);
}
void f2() {
  std::lock_guard<std::mutex> g(a_mu);
  std::lock_guard<std::mutex> h(b_mu);
}
)fx");
  EXPECT_FALSE(has_rule(findings, "lock-order"));
}

TEST(VerifyLockOrder, AcquiredBeforeAnnotationContradictedByCode) {
  // The header promises outer_ before inner_; the .cpp nests them the
  // other way round — a 2-cycle.
  const auto findings = analyze(
      {{"src/darl/rl/q.hpp", R"fx(
#pragma once
#include <mutex>
class Q {
  void swap_order();
  std::mutex outer_ DARL_ACQUIRED_BEFORE(inner_);
  std::mutex inner_;
};
)fx"},
       {"src/darl/rl/q.cpp", R"fx(
#include "q.hpp"
void Q::swap_order() {
  std::lock_guard<std::mutex> g(inner_);
  std::lock_guard<std::mutex> h(outer_);
}
)fx"}});
  ASSERT_EQ(count_rule(findings, "lock-order"), 1u);
  const std::string& msg = first_of(findings, "lock-order")->message;
  EXPECT_NE(msg.find("Q::outer_"), std::string::npos);
  EXPECT_NE(msg.find("Q::inner_"), std::string::npos);
}

TEST(VerifyLockOrder, ReacquiringHeldMutexIsASelfCycle) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
std::mutex mu;
void f() {
  std::lock_guard<std::mutex> g(mu);
  std::lock_guard<std::mutex> h(mu);
}
)fx");
  ASSERT_TRUE(has_rule(findings, "lock-order"));
  const std::string& msg = first_of(findings, "lock-order")->message;
  EXPECT_NE(msg.find("mu -> mu"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule: blocking-under-lock

TEST(VerifyBlocking, SleepUnderLockIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <chrono>
#include <mutex>
#include <thread>
std::mutex mu;
void f() {
  std::lock_guard<std::mutex> g(mu);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}
)fx");
  ASSERT_TRUE(has_rule(findings, "blocking-under-lock"));
  const std::string& msg = first_of(findings, "blocking-under-lock")->message;
  EXPECT_NE(msg.find("sleep_for"), std::string::npos);
  EXPECT_NE(msg.find("mu"), std::string::npos);
}

TEST(VerifyBlocking, SleepOutsideLockIsClean) {
  const auto findings = analyze_one(R"fx(
#include <chrono>
#include <mutex>
#include <thread>
std::mutex mu;
void f() {
  {
    std::lock_guard<std::mutex> g(mu);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}
)fx");
  EXPECT_FALSE(has_rule(findings, "blocking-under-lock"));
}

TEST(VerifyBlocking, SocketCallUnderLockIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
std::mutex mu;
void f(int fd, char* buf) {
  std::lock_guard<std::mutex> g(mu);
  recv(fd, buf, 64, 0);
}
)fx");
  EXPECT_TRUE(has_rule(findings, "blocking-under-lock"));
}

TEST(VerifyBlocking, JoinUnderLockIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <mutex>
#include <thread>
std::mutex mu;
void f(std::thread& t) {
  std::lock_guard<std::mutex> g(mu);
  t.join();
}
)fx");
  EXPECT_TRUE(has_rule(findings, "blocking-under-lock"));
}

TEST(VerifyBlocking, UnlockBeforeBlockingIsClean) {
  const auto findings = analyze_one(R"fx(
#include <chrono>
#include <mutex>
#include <thread>
std::mutex mu;
void f() {
  std::unique_lock<std::mutex> lk(mu);
  lk.unlock();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  lk.lock();
}
)fx");
  EXPECT_FALSE(has_rule(findings, "blocking-under-lock"));
}

TEST(VerifyBlocking, CvWaitWithPredicateOnOwnLockIsSanctioned) {
  const auto findings = analyze_one(R"fx(
#include <condition_variable>
#include <mutex>
std::mutex mu;
std::condition_variable cv;
bool ready = false;
void f() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return ready; });
}
)fx");
  EXPECT_FALSE(has_rule(findings, "blocking-under-lock"));
  EXPECT_FALSE(has_rule(findings, "cv-wait-no-predicate"));
}

TEST(VerifyBlocking, TimedWaitForOnOwnLockIsSanctioned) {
  const auto findings = analyze_one(R"fx(
#include <chrono>
#include <condition_variable>
#include <mutex>
std::mutex mu;
std::condition_variable cv;
void f() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait_for(lk, std::chrono::milliseconds(5));
}
)fx");
  EXPECT_FALSE(has_rule(findings, "blocking-under-lock"));
  EXPECT_FALSE(has_rule(findings, "cv-wait-no-predicate"));
}

TEST(VerifyBlocking, CvWaitHoldingASecondMutexIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <condition_variable>
#include <mutex>
std::mutex mu;
std::mutex other_mu;
std::condition_variable cv;
bool ready = false;
void f() {
  std::lock_guard<std::mutex> g(other_mu);
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return ready; });
}
)fx");
  ASSERT_TRUE(has_rule(findings, "blocking-under-lock"));
  const std::string& msg = first_of(findings, "blocking-under-lock")->message;
  EXPECT_NE(msg.find("other_mu"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule: cv-wait-no-predicate

TEST(VerifyCvWait, UntimedWaitWithoutPredicateIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <condition_variable>
#include <mutex>
std::mutex mu;
std::condition_variable cv;
void f() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk);
}
)fx");
  EXPECT_TRUE(has_rule(findings, "cv-wait-no-predicate"));
}

TEST(VerifyCvWait, FutureWaitIsNotACvWait) {
  const auto findings = analyze_one(R"fx(
#include <future>
void f(std::future<int>& fut) {
  fut.wait();
}
)fx");
  EXPECT_FALSE(has_rule(findings, "cv-wait-no-predicate"));
  EXPECT_FALSE(has_rule(findings, "blocking-under-lock"));
}

// ---------------------------------------------------------------------------
// Rule: naked-atomic-ordering

TEST(VerifyAtomic, NakedLoadOnHotPathIsFlagged) {
  const auto findings = analyze_one(R"fx(
#include <atomic>
class S {
 public:
  int peek() const { return v_.load(); }
 private:
  std::atomic<int> v_{0};
};
)fx",
                                    "src/darl/serve/s.cpp");
  ASSERT_TRUE(has_rule(findings, "naked-atomic-ordering"));
  EXPECT_EQ(first_of(findings, "naked-atomic-ordering")->line, 5u);
}

TEST(VerifyAtomic, ExplicitOrderingOnHotPathIsClean) {
  const auto findings = analyze_one(R"fx(
#include <atomic>
class S {
 public:
  int peek() const { return v_.load(std::memory_order_acquire); }
  void bump() {
    v_.fetch_add(1,
                 std::memory_order_relaxed);
  }
 private:
  std::atomic<int> v_{0};
};
)fx",
                                    "src/darl/obs/s.cpp");
  // Includes a memory_order on a continuation line: the argument list is
  // parsed balanced, not per-line.
  EXPECT_FALSE(has_rule(findings, "naked-atomic-ordering"));
}

TEST(VerifyAtomic, NakedLoadOffHotPathIsTolerated) {
  const auto findings = analyze_one(R"fx(
#include <atomic>
std::atomic<int> v{0};
int peek() { return v.load(); }
)fx",
                                    "src/darl/rl/s.cpp");
  EXPECT_FALSE(has_rule(findings, "naked-atomic-ordering"));
}

// ---------------------------------------------------------------------------
// The annotation macros themselves

#ifndef __clang__
#define DARL_TEST_STR2(x) #x
#define DARL_TEST_STR(x) DARL_TEST_STR2(x)
TEST(VerifyMacros, ExpandToNothingOutsideClang) {
  // Under GCC the annotations must vanish entirely — they exist for
  // darl_verify (lexically) and Clang -Wthread-safety (semantically),
  // and cost nothing everywhere else.
  EXPECT_STREQ(DARL_TEST_STR(DARL_GUARDED_BY(m)), "");
  EXPECT_STREQ(DARL_TEST_STR(DARL_REQUIRES(m)), "");
  EXPECT_STREQ(DARL_TEST_STR(DARL_ACQUIRED_BEFORE(m)), "");
  EXPECT_STREQ(DARL_TEST_STR(DARL_EXCLUDES(m)), "");
}
#undef DARL_TEST_STR
#undef DARL_TEST_STR2
#endif

// ---------------------------------------------------------------------------
// JSON output (shared with darl_lint)

TEST(VerifyJson, EscapesAndSchema) {
  EXPECT_EQ(lint::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

  std::vector<lint::Finding> findings;
  findings.push_back(
      lint::Finding{"guarded-field", "src/darl/rl/q.cpp", 3, "bare \"x_\""});
  findings.push_back(
      lint::Finding{"lock-order", "src/darl/rl/f1.cpp", 8, "cycle"});
  std::vector<lint::Suppression> supps;
  supps.push_back(
      lint::Suppression{"lock-order", "src/darl/rl/f1.cpp", "known", 1});
  const auto annotated =
      lint::annotate_suppressions(std::move(findings), supps);
  ASSERT_EQ(annotated.size(), 2u);
  EXPECT_FALSE(annotated[0].suppressed);
  EXPECT_TRUE(annotated[1].suppressed);
  EXPECT_TRUE(supps[0].used);

  const std::string json = lint::findings_json(annotated);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"rule\": \"guarded-field\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/darl/rl/q.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"message\": \"bare \\\"x_\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": true"), std::string::npos);
}

TEST(VerifyJson, EmptyFindingsIsEmptyArray) {
  EXPECT_EQ(lint::findings_json({}), "[]\n");
}
