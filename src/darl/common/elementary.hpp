// darl/common/elementary.hpp
//
// darl's own elementary functions. Every tanh layer, softmax, log-prob,
// environment step and step-size controller in src/ calls these instead
// of libm, because libm's results depend on the host: glibc picks FMA or
// non-FMA variants of exp, log, sin, tanh and the rest by CPU, so the
// same binary trained different bits on a CPU without FMA. These are
// built only from IEEE-754 + - * /, sqrt (correctly rounded) and bit
// operations, compiled without contraction (-ffp-contract=off), so each
// returns the same bits for the same input on every x86-64 host, with or
// without -mavx, and in every lane width of the tanh row pass.
//
// Each function states its range reduction and its maximum error in ulps
// of the correctly rounded result (measured by tests/test_elementary.cpp
// against the long double libm over seeded inputs). Special values
// follow C Annex F: NaN in, NaN out; exp(-inf) = 0; log(0) = -inf;
// log(x < 0) = NaN; sin/cos(+-inf) = NaN; tanh(+-inf) = +-1; the pow and
// atan2 special cases as listed there.
//
// Not owned here: sqrt, fabs, floor, fmod and ldexp, which are exact, and
// the uniform draws of <random> (Rng::uniform, randint, std::shuffle),
// which libstdc++ defines without libm's inexact functions.

#pragma once

#include <cstddef>

namespace darl::math {

/// e^x. k = round(x / ln 2), r = x - k ln2 in two parts (Cody-Waite,
/// |r| <= ln2 / 2), exp(r) from a degree-5 rational remainder
/// (fdlibm's), scaled by 2^k. Error < 1 ulp; subnormal results round
/// twice. Overflows to +inf above 709.78, underflows to 0 below -745.13.
double exp(double x);

/// Natural logarithm. x = 2^k m with m in [sqrt(2)/2, sqrt(2)),
/// log(m) = 2 atanh(s), s = (m - 1)/(m + 1), from a degree-14 polynomial
/// in s (fdlibm's); subnormals are scaled by 2^54 first. Error < 1 ulp.
double log(double x);

/// Hyperbolic tangent. |x| < 0.625: x + x s P(s)/Q(s), s = x^2 (Cephes'
/// rational); above, 1 - 2/(e^{2|x|} + 1) through exp's reduction;
/// |x| > 22 returns +-1. Branch-free: tanh_row runs these operations in
/// every lane. Error < 2 ulp.
double tanh(double x);

/// Sine and cosine. |x| <= pi/4 goes straight to the kernel polynomials
/// (fdlibm's); up to 2^20 pi/2 the argument is reduced by a three-part
/// pi/2 (Cody-Waite, 118 to 151 bits); beyond, by a 192-bit window of
/// 2/pi chosen by the exponent (Payne-Hanek), so huge arguments keep the
/// same error. Error < 1 ulp.
double sin(double x);
double cos(double x);

/// Angle of (x, y) in [-pi, pi]. atan(|y/x|) reduced to |t| < 7/16 about
/// the breakpoints 1/2, 1, 3/2 and infinity with two-part atan values,
/// then an odd degree-23 polynomial (fdlibm's), placed in its quadrant
/// with a two-part pi. Error < 2 ulp (one more rounding in y/x).
double atan2(double y, double x);

/// sqrt(x^2 + y^2) without overflow or underflow: the arguments are
/// scaled by 2^-700 or 2^700 when needed and squared exactly (Dekker's
/// split) before the one square root. Error < 1 ulp. hypot(+-inf, NaN) =
/// +inf.
double hypot(double x, double y);

/// x^y. For x > 0, log x is carried in double-double (2 atanh(s) with
/// s and s^2 in two parts, about 2^-64 relative), multiplied by y
/// exactly, and exponentiated with its low part folded into exp's
/// reduction, so no precision is lost to a bare exp(y log x). Negative x
/// needs an integer y; the sign follows its parity. Error < 1.5 ulp.
double pow(double x, double y);

/// x[i] = tanh(x[i]) for i < n, bitwise equal to the scalar tanh in
/// every lane and tail. Runs tanh_row_v8 where CPUID reports AVX-512F
/// (chosen once per process), else tanh_row_v4.
void tanh_row(double* x, std::size_t n);

/// The row pass four lanes at a time: AVX under -mavx, SSE2 pairs
/// without. Runs on every host.
void tanh_row_v4(double* x, std::size_t n);

#if defined(__x86_64__)
/// Eight lanes, compiled for AVX-512F. Call only when
/// cpu_has_avx512f() (darl/common/kernel.hpp).
void tanh_row_v8(double* x, std::size_t n);
#endif

}  // namespace darl::math
