// tools/cli_flags.hpp
//
// Flag values for the darl command-line tools (darl_study, darl_serve,
// darl_worker, darl_top). A numeric value must be the whole argument: an
// empty value, trailing characters, a sign on a count, leading space or a
// value out of range is rejected, never truncated or wrapped. A missing or
// malformed value names its flag on stderr and ends the process through
// the tool's usage(2), like any other malformed command line.

#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

namespace darl::cli {

/// No upper bound on a count beyond what 64 bits hold.
inline constexpr std::uint64_t kNoMax =
    std::numeric_limits<std::uint64_t>::max();

/// A decimal count: digits only, at most `max`.
inline std::optional<std::uint64_t> parse_count(const char* text,
                                                std::uint64_t max = kNoMax) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0' || value > max) return std::nullopt;
  return value;
}

/// A finite decimal number in strtod syntax (a sign is allowed).
inline std::optional<double> parse_number(const char* text) {
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0])))
    return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno == ERANGE || *end != '\0' || !std::isfinite(value))
    return std::nullopt;
  return value;
}

/// One tool's argv. Each accessor reads the value after the flag at
/// argv[i] and advances i past it.
class Flags {
 public:
  using Usage = void (*)(int code);

  Flags(int argc, char** argv, Usage usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// The raw value string.
  const char* value(int& i) const {
    if (i + 1 >= argc_) {
      std::fprintf(stderr, "missing value for %s\n", argv_[i]);
      exit_usage();
    }
    return argv_[++i];
  }

  /// A count in [0, max].
  std::uint64_t count(int& i, std::uint64_t max = kNoMax) const {
    const int flag = i;
    const char* text = value(i);
    if (const auto parsed = parse_count(text, max)) return *parsed;
    if (max == kNoMax) {
      std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n",
                   argv_[flag], text);
    } else {
      std::fprintf(stderr, "%s expects an integer in 0..%llu, got '%s'\n",
                   argv_[flag], static_cast<unsigned long long>(max), text);
    }
    exit_usage();
  }

  /// A TCP port, 0..65535.
  int port(int& i) const { return static_cast<int>(count(i, 65535)); }

  /// A finite number.
  double number(int& i) const {
    const int flag = i;
    const char* text = value(i);
    if (const auto parsed = parse_number(text)) return *parsed;
    std::fprintf(stderr, "%s expects a finite number, got '%s'\n",
                 argv_[flag], text);
    exit_usage();
  }

 private:
  [[noreturn]] void exit_usage() const {
    usage_(2);
    std::exit(2);  // usage() exits; this only satisfies [[noreturn]]
  }

  int argc_;
  char** argv_;
  Usage usage_;
};

}  // namespace darl::cli
