// The command-line tools' numeric flags (tools/cli_flags.hpp). The parser
// is tested directly; then each of darl_study, darl_serve, darl_worker and
// darl_top runs as a real process with one malformed value and must exit
// with status 2 (usage) and a message naming the flag — never through a
// signal, and never by running with a truncated or wrapped value. An
// unknown flag takes the same exit, and the argv the runtime writes for
// its spawned actors must still parse.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "darl/common/stopwatch.hpp"
#include "tools/cli_flags.hpp"

namespace darl::cli {
namespace {

TEST(CliFlags, CountIsDigitsOnly) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("4096"), 4096u);
  EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-1", "+3", " 4", "2x", "4 ", "0x10", "1e3",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_count(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_count("65535", 65535), 65535u);
  EXPECT_FALSE(parse_count("65536", 65535).has_value());
}

TEST(CliFlags, NumberTakesTheWholeArgument) {
  // darl_study --distributed hands its actors std::to_string values.
  EXPECT_EQ(parse_number("30.000000"), 30.0);
  EXPECT_EQ(parse_number("-0.5"), -0.5);
  EXPECT_EQ(parse_number("1e3"), 1000.0);
  for (const char* bad : {"", "abc", "1s", " 1", "1 ", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(parse_number(bad).has_value()) << "'" << bad << "'";
  }
}

/// Stands in for a tool's usage(): carries the exit code out as an
/// exception, so the test process survives a rejected value.
struct UsageExit {
  int code;
};
[[noreturn]] void throwing_usage(int code) { throw UsageExit{code}; }

TEST(CliFlags, AccessorsReadOneValueEach) {
  const char* args[] = {"tool",   "--n",    "42",   "--port", "65535",
                        "--x",    "-0.25",  "--on", "1",      "--name",
                        "value"};
  const Flags flags(11, const_cast<char**>(args), &throwing_usage);
  // Each accessor leaves i on the value it read; the tools' loops step on.
  int i = 1;
  EXPECT_EQ(flags.count(i), 42u);
  EXPECT_EQ(i, 2);
  i = 3;
  EXPECT_EQ(flags.port(i), 65535);
  EXPECT_EQ(i, 4);
  i = 5;
  EXPECT_EQ(flags.number(i), -0.25);
  EXPECT_EQ(i, 6);
  i = 7;
  EXPECT_EQ(flags.count(i, 1), 1u);
  EXPECT_EQ(i, 8);
  i = 9;
  EXPECT_STREQ(flags.value(i), "value");
  EXPECT_EQ(i, 10);
}

TEST(CliFlags, BadOrMissingValueExitsThroughUsage) {
  // The value after --flag (nullptr: none at all) and the accessor that
  // reads it; Bit is a count with max 1, like --spawn-actors.
  enum class Kind { Value, Count, Bit, Port, Number };
  struct Case {
    const char* value;
    Kind kind;
  };
  const Case cases[] = {
      {nullptr, Kind::Value},  {nullptr, Kind::Count}, {nullptr, Kind::Port},
      {nullptr, Kind::Number}, {"-1", Kind::Count},    {"2", Kind::Bit},
      {"65536", Kind::Port},   {"-1", Kind::Port},     {"nan", Kind::Number},
      {"", Kind::Number},
  };
  for (const Case& c : cases) {
    const char* args[] = {"tool", "--flag", c.value};
    const Flags flags(c.value == nullptr ? 2 : 3, const_cast<char**>(args),
                      &throwing_usage);
    int i = 1;
    int code = -1;
    try {
      switch (c.kind) {
        case Kind::Value: flags.value(i); break;
        case Kind::Count: flags.count(i); break;
        case Kind::Bit: flags.count(i, 1); break;
        case Kind::Port: flags.port(i); break;
        case Kind::Number: flags.number(i); break;
      }
    } catch (const UsageExit& e) {
      code = e.code;
    }
    EXPECT_EQ(code, 2) << "value '" << (c.value ? c.value : "(none)")
                       << "' kind " << static_cast<int>(c.kind);
  }
}

struct Run {
  int exit_code = -1;  ///< -1 unless the process exited normally
  int signal = 0;      ///< terminating signal, 0 if none
  std::string err;     ///< everything written to stderr
};

/// Run `bin args...` with stdout discarded and stderr captured. A tool
/// that accepts the bad value starts real work, so it is killed (and the
/// run reported as signalled) after a deadline.
Run run_tool(const char* bin, const std::vector<std::string>& args) {
  std::FILE* err = std::tmpfile();
  EXPECT_NE(err, nullptr);
  if (err == nullptr) return {};
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(::fileno(err), STDERR_FILENO);
    ::execv(bin, argv.data());
    ::_exit(127);
  }
  int status = 0;
  const Stopwatch waited;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (waited.seconds() > 60.0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Run run;
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) run.signal = WTERMSIG(status);
  std::rewind(err);
  char buf[512];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, err)) > 0) run.err.append(buf, n);
  std::fclose(err);
  return run;
}

/// Every case passes exactly one bad value or unknown flag, named by
/// `flag`.
void expect_usage_exit(const char* bin, const std::string& flag,
                       const std::vector<std::string>& args) {
  std::string line = bin;
  for (const std::string& a : args) line += " '" + a + "'";
  const Run run = run_tool(bin, args);
  EXPECT_EQ(run.signal, 0) << line << "\n" << run.err;
  EXPECT_EQ(run.exit_code, 2) << line << "\n" << run.err;
  EXPECT_NE(run.err.find(flag), std::string::npos)
      << line << ": stderr does not name " << flag << "\n" << run.err;
}

TEST(CliTools, StudyRejectsMalformedValues) {
  expect_usage_exit(DARL_STUDY_BIN, "--parallel", {"--parallel", "-1"});
  const std::vector<std::string> quick = {"--explorer", "random",
                                          "--timesteps", "256", "--seeds",
                                          "1", "--cache", ""};
  auto with = [&](std::vector<std::string> extra) {
    extra.insert(extra.begin(), quick.begin(), quick.end());
    return extra;
  };
  expect_usage_exit(DARL_STUDY_BIN, "--trials", with({"--trials", "2x"}));
  expect_usage_exit(DARL_STUDY_BIN, "--trials", with({"--trials", ""}));
  expect_usage_exit(DARL_STUDY_BIN, "--seed",
                    with({"--trials", "2", "--seed", "99999999999999999999"}));
  expect_usage_exit(DARL_STUDY_BIN, "--obs-port",
                    with({"--trials", "2", "--obs-port", "65536"}));
  expect_usage_exit(DARL_STUDY_BIN, "--trial-timeout",
                    with({"--trials", "2", "--trial-timeout", "5s"}));
}

TEST(CliTools, ServeRejectsMalformedValues) {
  expect_usage_exit(DARL_SERVE_BIN, "--clients", {"--clients", "-1"});
  const std::vector<std::string> quick = {"--train-timesteps", "256",
                                          "--clients", "1", "--requests",
                                          "1"};
  auto with = [&](std::vector<std::string> extra) {
    extra.insert(extra.begin(), quick.begin(), quick.end());
    return extra;
  };
  expect_usage_exit(DARL_SERVE_BIN, "--max-batch", with({"--max-batch", "4x"}));
  expect_usage_exit(DARL_SERVE_BIN, "--obs-port", with({"--obs-port", "-1"}));
  expect_usage_exit(DARL_SERVE_BIN, "--max-delay-us",
                    with({"--max-delay-us", "nan"}));
}

TEST(CliTools, WorkerRejectsMalformedValues) {
  expect_usage_exit(DARL_WORKER_BIN, "--cores",
                    {"--role", "learner", "--cores", "-1"});
  expect_usage_exit(DARL_WORKER_BIN, "--timesteps",
                    {"--role", "learner", "--timesteps", "+64"});
  expect_usage_exit(DARL_WORKER_BIN, "--node",
                    {"--role", "actor", "--connect", "unix:/nonexistent.sock",
                     "--connect-timeout", "0.1", "--node", "1x"});
  expect_usage_exit(DARL_WORKER_BIN, "--io-timeout",
                    {"--role", "learner", "--io-timeout", "2m"});
}

TEST(CliTools, TopRejectsMalformedValues) {
  expect_usage_exit(DARL_TOP_BIN, "--port", {"--port", "80x"});
  expect_usage_exit(DARL_TOP_BIN, "--iterations",
                    {"--port", "9", "--once", "--iterations", "-1"});
  expect_usage_exit(DARL_TOP_BIN, "--interval-ms",
                    {"--port", "9", "--once", "--interval-ms", "1e3"});
}

TEST(CliTools, UnknownFlagExitsThroughUsage) {
  // darl_serve's int8 flags are gone: rejected, not silently ignored.
  expect_usage_exit(DARL_SERVE_BIN, "--quantized", {"--quantized"});
  expect_usage_exit(DARL_SERVE_BIN, "--exact-tenants",
                    {"--exact-tenants", "a"});
  expect_usage_exit(DARL_STUDY_BIN, "--no-such-flag", {"--no-such-flag"});
  expect_usage_exit(DARL_WORKER_BIN, "--no-such-flag",
                    {"--role", "learner", "--no-such-flag"});
  expect_usage_exit(DARL_TOP_BIN, "--no-such-flag", {"--no-such-flag"});
}

// darl_worker's learner spawns each actor as a darl_worker process whose
// argv the runtime writes with std::to_string ("--node 1",
// "--connect-timeout 10.000000"). The strict parser must accept all of it,
// or no actor connects and the learner times out and exits 1.
TEST(CliTools, WorkerActorsAcceptTheRuntimesArgv) {
  const auto run = run_tool(
      DARL_WORKER_BIN, {"--role", "learner", "--nodes", "2", "--cores", "1",
                        "--timesteps", "512", "--batch-total", "256",
                        "--connect-timeout", "10"});
  EXPECT_EQ(run.signal, 0) << run.err;
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.err.find("expects"), std::string::npos) << run.err;
}

}  // namespace
}  // namespace darl::cli
