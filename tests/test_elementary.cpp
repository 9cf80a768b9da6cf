// darl's elementary functions (darl/common/elementary.hpp): error bounds
// against the long double libm, special values, the tanh row pass in
// every lane width, and pinned output bits.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "darl/common/elementary.hpp"
#include "darl/common/kernel.hpp"
#include "darl/common/rng.hpp"

namespace darl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
/// NaNs of either sign, with zero and nonzero payloads, one signaling.
const double kNaNs[] = {kNaN, -kNaN, std::nan("1"),
                        std::numeric_limits<double>::signaling_NaN(),
                        std::bit_cast<double>(0xfff8000000000fffull)};
constexpr std::size_t kSamples = 1'000'000;

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Error of `got` in ulps of the double nearest to `want`; infinite
/// where exactly one of them is NaN, so a NaN result fails a bound.
double ulp_error(double got, long double want) {
  const double rounded = static_cast<double>(want);
  if (std::isnan(got) || std::isnan(rounded)) {
    return std::isnan(got) && std::isnan(rounded) ? 0.0 : kInf;
  }
  if (std::isinf(rounded) || std::isinf(got)) {
    return got == rounded ? 0.0 : kInf;
  }
  int e = 0;
  std::frexp(rounded, &e);
  const double ulp = std::ldexp(1.0, std::max(e - 53, -1074));
  return static_cast<double>(std::fabs(static_cast<long double>(got) - want) / ulp);
}

/// Largest ulp error of f against ref over kSamples draws of the argument.
double max_ulp_1(const std::function<double(double)>& f,
                 long double (*ref)(long double),
                 const std::function<double(Rng&)>& draw, std::uint64_t seed) {
  Rng rng(seed);
  double worst = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double x = draw(rng);
    worst = std::max(worst, ulp_error(f(x), ref(x)));
  }
  return worst;
}

double max_ulp_2(const std::function<double(double, double)>& f,
                 long double (*ref)(long double, long double),
                 const std::function<double(Rng&)>& draw_a,
                 const std::function<double(Rng&)>& draw_b, std::uint64_t seed) {
  Rng rng(seed);
  double worst = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double a = draw_a(rng);
    const double b = draw_b(rng);
    worst = std::max(worst, ulp_error(f(a, b), ref(a, b)));
  }
  return worst;
}

std::function<double(Rng&)> uniform_in(double lo, double hi) {
  return [=](Rng& rng) { return rng.uniform(lo, hi); };
}

/// |x| = (1 + u) 2^e with e uniform over [lo, hi) (subnormals round),
/// with a random sign when `signed_`. Built by ldexp, which is exact, so
/// the inputs are the same on every host.
std::function<double(Rng&)> log_uniform(double lo, double hi, bool signed_) {
  return [=](Rng& rng) {
    const int e = static_cast<int>(std::floor(rng.uniform(lo, hi)));
    const double x = std::ldexp(1.0 + rng.uniform(), e);
    return signed_ && rng.uniform() < 0.5 ? -x : x;
  };
}

/// Integers drawn uniformly from [lo, hi).
std::function<double(Rng&)> integers_in(double lo, double hi) {
  return [=](Rng& rng) { return std::floor(rng.uniform(lo, hi)); };
}

long double ref_exp(long double x) { return expl(x); }
long double ref_log(long double x) { return logl(x); }
long double ref_tanh(long double x) { return tanhl(x); }
long double ref_sin(long double x) { return sinl(x); }
long double ref_cos(long double x) { return cosl(x); }
long double ref_atan2(long double y, long double x) { return atan2l(y, x); }
long double ref_hypot(long double x, long double y) { return hypotl(x, y); }
long double ref_pow(long double x, long double y) { return powl(x, y); }

/// The measured maximum beside the bound, so a log shows the margin.
void expect_within(const std::string& range, double bound, double measured) {
  EXPECT_LE(measured, bound) << range;
  std::printf("  %-40s max %.3f ulp (bound %.1f)\n", range.c_str(), measured,
              bound);
}

// The bounds elementary.hpp states, per function.
constexpr double kExpBound = 1.0;
constexpr double kLogBound = 1.0;
constexpr double kTanhBound = 2.0;
constexpr double kSinCosBound = 1.0;
constexpr double kAtan2Bound = 2.0;
constexpr double kHypotBound = 1.0;
constexpr double kPowBound = 1.5;

TEST(Elementary, ExpWithinBound) {
  const auto exp_ulp = [](const std::function<double(Rng&)>& draw, std::uint64_t seed) {
    return max_ulp_1(math::exp, ref_exp, draw, seed);
  };
  expect_within("exp [-745, 709.7]", kExpBound, exp_ulp(uniform_in(-745.0, 709.7), 1));
  expect_within("exp [-1, 1]", kExpBound, exp_ulp(uniform_in(-1.0, 1.0), 2));
  expect_within("exp +-2^[-60, 3]", kExpBound, exp_ulp(log_uniform(-60.0, 3.0, true), 3));
}

TEST(Elementary, LogWithinBound) {
  const auto log_ulp = [](const std::function<double(Rng&)>& draw, std::uint64_t seed) {
    return max_ulp_1(math::log, ref_log, draw, seed);
  };
  expect_within("log 2^[-1074, 1024)", kLogBound,
                log_ulp(log_uniform(-1074.0, 1023.9, false), 4));
  expect_within("log [0.5, 2]", kLogBound, log_ulp(uniform_in(0.5, 2.0), 5));
  expect_within("log 1 +- 1e-3", kLogBound,
                log_ulp(uniform_in(1.0 - 1e-3, 1.0 + 1e-3), 6));
}

TEST(Elementary, TanhWithinBound) {
  const auto tanh_ulp = [](const std::function<double(Rng&)>& draw, std::uint64_t seed) {
    return max_ulp_1(math::tanh, ref_tanh, draw, seed);
  };
  expect_within("tanh [-1, 1]", kTanhBound, tanh_ulp(uniform_in(-1.0, 1.0), 7));
  expect_within("tanh [-20, 20]", kTanhBound, tanh_ulp(uniform_in(-20.0, 20.0), 8));
  expect_within("tanh +-2^[-40, 0]", kTanhBound,
                tanh_ulp(log_uniform(-40.0, 0.0, true), 9));
}

TEST(Elementary, SinCosWithinBound) {
  for (const auto& [f, ref, name] :
       {std::tuple{&math::sin, &ref_sin, std::string("sin")},
        std::tuple{&math::cos, &ref_cos, std::string("cos")}}) {
    expect_within(name + " [-4, 4]", kSinCosBound,
                  max_ulp_1(f, ref, uniform_in(-4.0, 4.0), 10));
    expect_within(name + " [-1e5, 1e5]", kSinCosBound,
                  max_ulp_1(f, ref, uniform_in(-1e5, 1e5), 11));
    // Payne-Hanek's range: up to the largest finite double.
    expect_within(name + " +-2^[20, 1024)", kSinCosBound,
                  max_ulp_1(f, ref, log_uniform(20.0, 1023.9, true), 12));
  }
}

TEST(Elementary, Atan2WithinBound) {
  expect_within("atan2 [-10, 10]^2", kAtan2Bound,
                max_ulp_2(math::atan2, ref_atan2, uniform_in(-10.0, 10.0),
                          uniform_in(-10.0, 10.0), 13));
  expect_within("atan2 (+-2^[-80, 80])^2", kAtan2Bound,
                max_ulp_2(math::atan2, ref_atan2, log_uniform(-80.0, 80.0, true),
                          log_uniform(-80.0, 80.0, true), 14));
}

TEST(Elementary, HypotWithinBound) {
  expect_within("hypot [-1e3, 1e3]^2", kHypotBound,
                max_ulp_2(math::hypot, ref_hypot, uniform_in(-1e3, 1e3),
                          uniform_in(-1e3, 1e3), 15));
  expect_within("hypot (+-2^[-1074, 1024))^2", kHypotBound,
                max_ulp_2(math::hypot, ref_hypot, log_uniform(-1074.0, 1023.9, true),
                          log_uniform(-1074.0, 1023.9, true), 16));
}

TEST(Elementary, PowWithinBound) {
  const auto pow_ulp = [](const std::function<double(Rng&)>& x,
                          const std::function<double(Rng&)>& y, std::uint64_t seed) {
    return max_ulp_2(math::pow, ref_pow, x, y, seed);
  };
  expect_within("pow (0, 10] ^ [-10, 10]", kPowBound,
                pow_ulp(uniform_in(0.0, 10.0), uniform_in(-10.0, 10.0), 17));
  // Large |y log x|, near over- and underflow.
  expect_within("pow [0.5, 2] ^ [-1070, 1020]", kPowBound,
                pow_ulp(uniform_in(0.5, 2.0), uniform_in(-1070.0, 1020.0), 18));
  expect_within("pow 2^[-1074, 1024) ^ [-1, 1]", kPowBound,
                pow_ulp(log_uniform(-1074.0, 1023.9, false), uniform_in(-1.0, 1.0), 19));
  // Adam's bias corrections: beta^t for integer t.
  expect_within("pow [0.9, 0.9999] ^ integers [1, 1e6)", kPowBound,
                pow_ulp(uniform_in(0.9, 0.9999), integers_in(1.0, 1e6), 20));
  // Negative bases with integer exponents.
  expect_within("pow [-3, -0.1] ^ integers [-300, 300)", kPowBound,
                pow_ulp(uniform_in(-3.0, -0.1), integers_in(-300.0, 300.0), 21));
}

/// Same bits, so that the signs of zeros and NaN-ness count.
void expect_same(double got, double want, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << " = " << got;
  } else {
    EXPECT_EQ(bits_of(got), bits_of(want)) << what << " = " << got << ", want " << want;
  }
}

TEST(Elementary, SpecialValues) {
  const double sub = std::numeric_limits<double>::denorm_min();
  const double dmax = std::numeric_limits<double>::max();
  // NaN in, NaN out, whatever the sign and payload.
  for (const double nan : kNaNs) {
    expect_same(math::exp(nan), kNaN, "exp(nan)");
    expect_same(math::log(nan), kNaN, "log(nan)");
    expect_same(math::tanh(nan), kNaN, "tanh(nan)");
    expect_same(math::sin(nan), kNaN, "sin(nan)");
    expect_same(math::cos(nan), kNaN, "cos(nan)");
    expect_same(math::atan2(nan, 1.0), kNaN, "atan2(nan, x)");
    expect_same(math::atan2(1.0, nan), kNaN, "atan2(y, nan)");
    expect_same(math::hypot(nan, 1.0), kNaN, "hypot(nan, y)");
    expect_same(math::pow(nan, 1.0), kNaN, "pow(nan, 1)");
    expect_same(math::pow(2.0, nan), kNaN, "pow(2, nan)");
  }
  // exp: overflow and underflow thresholds.
  expect_same(math::exp(0.0), 1.0, "exp(0)");
  expect_same(math::exp(-0.0), 1.0, "exp(-0)");
  expect_same(math::exp(kInf), kInf, "exp(inf)");
  expect_same(math::exp(-kInf), 0.0, "exp(-inf)");
  expect_same(math::exp(709.78), std::exp(709.78), "exp(709.78)");
  expect_same(math::exp(709.79), kInf, "exp(709.79)");
  expect_same(math::exp(-745.13), sub, "exp(-745.13)");
  expect_same(math::exp(-745.14), 0.0, "exp(-745.14)");
  EXPECT_LE(ulp_error(math::exp(-720.0), expl(-720.0L)), kExpBound) << "subnormal";
  // log
  expect_same(math::log(1.0), 0.0, "log(1)");
  expect_same(math::log(0.0), -kInf, "log(0)");
  expect_same(math::log(-0.0), -kInf, "log(-0)");
  expect_same(math::log(-1.0), kNaN, "log(-1)");
  expect_same(math::log(-kInf), kNaN, "log(-inf)");
  expect_same(math::log(kInf), kInf, "log(inf)");
  EXPECT_LE(ulp_error(math::log(sub), logl(sub)), kLogBound) << "log(denorm_min)";
  EXPECT_LE(ulp_error(math::log(dmax), logl(dmax)), kLogBound) << "log(max)";
  // tanh
  expect_same(math::tanh(0.0), 0.0, "tanh(0)");
  expect_same(math::tanh(-0.0), -0.0, "tanh(-0)");
  expect_same(math::tanh(sub), sub, "tanh(denorm_min)");
  expect_same(math::tanh(-sub), -sub, "tanh(-denorm_min)");
  expect_same(math::tanh(kInf), 1.0, "tanh(inf)");
  expect_same(math::tanh(-kInf), -1.0, "tanh(-inf)");
  expect_same(math::tanh(25.0), 1.0, "tanh(25)");
  // sin, cos: zeros, subnormals, non-finite and huge arguments.
  expect_same(math::sin(0.0), 0.0, "sin(0)");
  expect_same(math::sin(-0.0), -0.0, "sin(-0)");
  expect_same(math::sin(-sub), -sub, "sin(-denorm_min)");
  expect_same(math::cos(0.0), 1.0, "cos(0)");
  expect_same(math::cos(-sub), 1.0, "cos(-denorm_min)");
  for (const double x : {kInf, -kInf, kNaN}) {
    expect_same(math::sin(x), kNaN, "sin(non-finite)");
    expect_same(math::cos(x), kNaN, "cos(non-finite)");
  }
  for (const double x : {1e22, -1e22, 1e300, dmax, -dmax, 0x1p1023, 6.0e15,
                         8.218e5}) {
    EXPECT_LE(ulp_error(math::sin(x), sinl(x)), kSinCosBound) << "sin(" << x << ")";
    EXPECT_LE(ulp_error(math::cos(x), cosl(x)), kSinCosBound) << "cos(" << x << ")";
  }
  // atan2 (C Annex F).
  const double pi = 3.141592653589793;
  expect_same(math::atan2(0.0, 1.0), 0.0, "atan2(+0, +x)");
  expect_same(math::atan2(-0.0, 1.0), -0.0, "atan2(-0, +x)");
  expect_same(math::atan2(0.0, -1.0), pi, "atan2(+0, -x)");
  expect_same(math::atan2(-0.0, -1.0), -pi, "atan2(-0, -x)");
  expect_same(math::atan2(0.0, -0.0), pi, "atan2(+0, -0)");
  expect_same(math::atan2(-0.0, 0.0), -0.0, "atan2(-0, +0)");
  expect_same(math::atan2(1.0, 0.0), pi / 2, "atan2(y, 0)");
  expect_same(math::atan2(-1.0, -0.0), -pi / 2, "atan2(-y, -0)");
  expect_same(math::atan2(kInf, kInf), pi / 4, "atan2(inf, inf)");
  expect_same(math::atan2(-kInf, -kInf), -3 * pi / 4, "atan2(-inf, -inf)");
  expect_same(math::atan2(1.0, kInf), 0.0, "atan2(y, inf)");
  expect_same(math::atan2(-1.0, -kInf), -pi, "atan2(-y, -inf)");
  expect_same(math::atan2(kInf, 3.0), pi / 2, "atan2(inf, x)");
  // hypot
  expect_same(math::hypot(kInf, kNaN), kInf, "hypot(inf, nan)");
  expect_same(math::hypot(kNaN, -kInf), kInf, "hypot(nan, -inf)");
  expect_same(math::hypot(-0.0, 0.0), 0.0, "hypot(-0, 0)");
  expect_same(math::hypot(-3.0, 0.0), 3.0, "hypot(x, 0)");
  expect_same(math::hypot(3.0, 4.0), 5.0, "hypot(3, 4)");
  expect_same(math::hypot(dmax, dmax), kInf, "hypot(max, max)");
  expect_same(math::hypot(sub, sub), std::hypot(sub, sub), "hypot(denorm_min x2)");
  // pow: C Annex F F.10.4.4.
  expect_same(math::pow(kNaN, 0.0), 1.0, "pow(nan, 0)");
  expect_same(math::pow(kNaN, -0.0), 1.0, "pow(nan, -0)");
  expect_same(math::pow(1.0, kNaN), 1.0, "pow(1, nan)");
  expect_same(math::pow(0.0, -3.0), kInf, "pow(+0, -odd)");
  expect_same(math::pow(-0.0, -3.0), -kInf, "pow(-0, -odd)");
  expect_same(math::pow(-0.0, -2.0), kInf, "pow(-0, -even)");
  expect_same(math::pow(-0.0, -0.5), kInf, "pow(-0, -non-integer)");
  expect_same(math::pow(-0.0, -kInf), kInf, "pow(-0, -inf)");
  expect_same(math::pow(0.0, 3.0), 0.0, "pow(+0, odd)");
  expect_same(math::pow(-0.0, 3.0), -0.0, "pow(-0, odd)");
  expect_same(math::pow(-0.0, 2.0), 0.0, "pow(-0, even)");
  expect_same(math::pow(-0.0, 0.5), 0.0, "pow(-0, non-integer)");
  expect_same(math::pow(-1.0, kInf), 1.0, "pow(-1, inf)");
  expect_same(math::pow(-1.0, -kInf), 1.0, "pow(-1, -inf)");
  expect_same(math::pow(0.5, -kInf), kInf, "pow(|x|<1, -inf)");
  expect_same(math::pow(-2.0, -kInf), 0.0, "pow(|x|>1, -inf)");
  expect_same(math::pow(-0.5, kInf), 0.0, "pow(|x|<1, inf)");
  expect_same(math::pow(2.0, kInf), kInf, "pow(|x|>1, inf)");
  expect_same(math::pow(-kInf, -3.0), -0.0, "pow(-inf, -odd)");
  expect_same(math::pow(-kInf, -2.0), 0.0, "pow(-inf, -even)");
  expect_same(math::pow(-kInf, 3.0), -kInf, "pow(-inf, odd)");
  expect_same(math::pow(-kInf, 2.5), kInf, "pow(-inf, non-integer)");
  expect_same(math::pow(kInf, -1.0), 0.0, "pow(inf, y<0)");
  expect_same(math::pow(kInf, 0.5), kInf, "pow(inf, y>0)");
  expect_same(math::pow(-2.0, 0.5), kNaN, "pow(x<0, non-integer)");
  expect_same(math::pow(-2.0, 3.0), -8.0, "pow(-2, 3)");
  expect_same(math::pow(-2.0, 0x1p60), kInf, "pow(-2, huge even)");
  expect_same(math::pow(2.0, 1024.0), kInf, "pow overflow");
  expect_same(math::pow(-2.0, 1025.0), -kInf, "pow overflow, odd");
  expect_same(math::pow(2.0, -1074.0), sub, "pow(2, -1074)");
  expect_same(math::pow(2.0, -1076.0), 0.0, "pow underflow");
  expect_same(math::pow(-2.0, -1077.0), -0.0, "pow underflow, odd");
  expect_same(math::pow(10.0, 2.0), 100.0, "pow(10, 2)");
  expect_same(math::pow(0.7, 1.0), 0.7, "pow(x, 1)");
  EXPECT_LE(ulp_error(math::pow(sub, 0.5), powl(sub, 0.5L)), kPowBound)
      << "pow(denorm_min, 0.5)";
}

/// Inputs that cover both tanh forms, both saturation sides, zeros of
/// both signs, subnormals and non-finite values, NaN payloads included.
std::vector<double> tanh_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  const double special[] = {0.0, -0.0, 0.625, -0.625, 22.0, -30.0, kInf, -kInf,
                            kNaN, 4.9e-324, 1e-300, 19.1, std::nan("1"),
                            std::numeric_limits<double>::signaling_NaN(),
                            -std::nan("1")};
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = i % 7 == 3 ? special[(i / 7) % std::size(special)]
                      : std::ldexp(rng.uniform(-1.0, 1.0),
                                   static_cast<int>(rng.randint(-12, 5)));
  }
  return x;
}

void expect_row_matches_scalar(void (*row)(double*, std::size_t)) {
  // Every length up to 19 exercises each tail; then a long row.
  for (std::size_t n = 0; n <= 19; ++n) {
    const std::vector<double> x = tanh_inputs(n, 100 + n);
    std::vector<double> y = x;
    row(y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(y[i]), bits_of(math::tanh(x[i])))
          << "n " << n << " lane " << i << " x " << x[i];
    }
  }
  const std::vector<double> x = tanh_inputs(100'003, 7);
  std::vector<double> y = x;
  row(y.data(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits_of(y[i]), bits_of(math::tanh(x[i]))) << "x " << x[i];
  }
}

TEST(Elementary, TanhRowFourLanesMatchesScalar) {
  expect_row_matches_scalar(&math::tanh_row_v4);
}

TEST(Elementary, TanhRowEightLanesMatchesScalar) {
#if defined(__x86_64__)
  if (!cpu_has_avx512f()) GTEST_SKIP() << "no AVX-512F on this host";
  expect_row_matches_scalar(&math::tanh_row_v8);
#else
  GTEST_SKIP() << "the 8-lane row is x86-64 only";
#endif
}

TEST(Elementary, TanhRowDispatchMatchesScalar) {
  expect_row_matches_scalar(&math::tanh_row);
}

/// FNV-1a over the output bits of f at seeded inputs.
std::uint64_t digest_1(double (*f)(double), const std::function<double(Rng&)>& draw,
                       std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (int i = 0; i < 100'000; ++i) {
    h ^= bits_of(f(draw(rng)));
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t digest_2(double (*f)(double, double),
                       const std::function<double(Rng&)>& draw_a,
                       const std::function<double(Rng&)>& draw_b, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (int i = 0; i < 100'000; ++i) {
    const double a = draw_a(rng);
    h ^= bits_of(f(a, draw_b(rng)));
    h *= 0x100000001B3ull;
  }
  return h;
}

// The contraction detector. Every function is a fixed sequence of IEEE
// operations, so its output bits at fixed inputs are the same on every
// host and in every build; they are pinned here. A multiply-add
// contracted into an FMA (a build without -ffp-contract=off, where the
// 8-lane row's AVX-512F target has FMA), a call into the host's libm or
// a reordered operation moves some of these 100,000 results per
// function. The uniform draws are libstdc++'s, which call no inexact
// libm function.
TEST(Elementary, OutputBitsArePinned) {
  struct Case {
    const char* name;
    std::uint64_t got, want;
  };
  const Case cases[] = {
      {"exp", digest_1(math::exp, uniform_in(-40.0, 40.0), 31),
       0x8a0bae7fd5613b24ull},
      {"log", digest_1(math::log, log_uniform(-60.0, 60.0, false), 32),
       0x744ecec5b63673f6ull},
      {"tanh", digest_1(math::tanh, uniform_in(-4.0, 4.0), 33),
       0x36e54393c8fa3d6full},
      {"sin", digest_1(math::sin, uniform_in(-1e3, 1e3), 34),
       0x434a63199c321d99ull},
      {"cos", digest_1(math::cos, log_uniform(-10.0, 1000.0, true), 35),
       0x429753bcbc5f4fc4ull},
      {"atan2",
       digest_2(math::atan2, uniform_in(-5.0, 5.0), uniform_in(-5.0, 5.0), 36),
       0xbb9e5369ee258020ull},
      {"hypot",
       digest_2(math::hypot, uniform_in(-5.0, 5.0), uniform_in(-5.0, 5.0), 37),
       0xfafb8a8907e30e45ull},
      {"pow",
       digest_2(math::pow, uniform_in(0.0, 4.0), uniform_in(-30.0, 30.0), 38),
       0x59c790852739824eull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.got, c.want) << c.name << ": 0x" << std::hex << c.got;
  }
  std::vector<double> row = tanh_inputs(4099, 39);
  math::tanh_row(row.data(), row.size());
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const double v : row) {
    h ^= bits_of(v);
    h *= 0x100000001B3ull;
  }
  EXPECT_EQ(h, 0x0258811290c42cccull) << "tanh_row: 0x" << std::hex << h;
}

}  // namespace
}  // namespace darl
