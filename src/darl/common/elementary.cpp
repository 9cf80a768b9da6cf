#include "darl/common/elementary.hpp"

// Method notes live in elementary.hpp. The exp, log, sin/cos, atan and
// hypot kernels and their minimax coefficients are fdlibm's (Sun
// Microsystems, 1993, freely redistributable); the tanh rational below
// 0.625 is Cephes' (S. L. Moshier). This file must be compiled with
// -ffp-contract=off (see common/CMakeLists.txt): a contracted a * b + c
// rounds once instead of twice and moves the bits.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "darl/common/kernel.hpp"

// The lane templates below take and return GCC vector types by value.
// They are always inlined into their callers, the 8-lane one into a
// target("avx512f") function, so no call crosses the ABI -Wpsabi warns
// about.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace darl::math {
namespace {

using u64 = std::uint64_t;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr u64 kSignBit = 0x8000000000000000ull;

inline u64 bits_of(double x) { return std::bit_cast<u64>(x); }
inline double from_bits(u64 b) { return std::bit_cast<double>(b); }

// Adding 1.5 * 2^52 rounds any double below 2^51 in magnitude to the
// nearest integer k, which then sits in the low bits of the sum.
constexpr double kRoundShift = 0x1.8p52;

// ---- double-double helpers (exact without contraction) ----------------

struct DD {
  double hi, lo;
};

/// a + b = s.hi + s.lo exactly (Knuth).
inline DD two_sum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

/// a + b = s.hi + s.lo exactly when |a| >= |b| (Dekker).
inline DD fast_two_sum(double a, double b) {
  const double s = a + b;
  return {s, b - (s - a)};
}

/// a = hi + lo with 26 and 27 significant bits (Veltkamp); |a| < 2^995.
inline DD split(double a) {
  const double c = 134217729.0 * a;  // 2^27 + 1
  const double hi = c - (c - a);
  return {hi, a - hi};
}

/// a * b = p.hi + p.lo exactly (Dekker); |a|, |b| < 2^995.
inline DD two_prod(double a, double b) {
  const double p = a * b;
  const DD as = split(a);
  const DD bs = split(b);
  return {p, ((as.hi * bs.hi - p) + as.hi * bs.lo + as.lo * bs.hi) +
                 as.lo * bs.lo};
}

// ---- exp ---------------------------------------------------------------

constexpr double kInvLn2 = 1.44269504088896338700e+00;
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 32 bits: k * kLn2Hi is exact
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kExpP1 = 1.66666666666666019037e-01;
constexpr double kExpP2 = -2.77777777770155933842e-03;
constexpr double kExpP3 = 6.61375632143793436117e-05;
constexpr double kExpP4 = -1.65339022054652515390e-06;
constexpr double kExpP5 = 4.13813679705723846039e-08;
constexpr double kExpOverflow = 7.09782712893383973096e+02;
constexpr double kExpUnderflow = -7.45133219101941108420e+02;

/// e^r for r = hi - lo, |r| <= ln2/2 (and a rounding): with
/// c = r - r^2 (P1 + ... + P5 r^8), e^r = 1 + r + r c / (2 - c).
template <class V>
[[gnu::always_inline]] inline V exp_kernel(V hi, V lo) {
  const V r = hi - lo;
  const V t = r * r;
  const V c =
      r - t * (kExpP1 + t * (kExpP2 + t * (kExpP3 + t * (kExpP4 + t * kExpP5))));
  return 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
}

/// y * 2^k for y in [0.7, 1.42], |k| <= 1076: one exponent add, or a
/// second rounding where the result is subnormal.
inline double scale_by_pow2(double y, int k) {
  if (k >= -1021 && k <= 1023) {
    return from_bits(bits_of(y) + (static_cast<u64>(k) << 52));
  }
  if (k > 1023) return from_bits(bits_of(y) + (static_cast<u64>(k - 1) << 52)) * 2.0;
  return from_bits(bits_of(y) + (static_cast<u64>(k + 1000) << 52)) * 0x1p-1000;
}

/// e^(hi + lo) for |hi| <= 745.2, lo a small tail: k = round(hi / ln2),
/// and the tail joins the second part of the reduction.
inline double exp_dd(double hi, double lo) {
  const double shifted = hi * kInvLn2 + kRoundShift;
  const double k = shifted - kRoundShift;
  return scale_by_pow2(exp_kernel(hi - k * kLn2Hi, k * kLn2Lo - lo),
                       static_cast<int>(k));
}

// ---- tanh --------------------------------------------------------------

constexpr double kTanhP0 = -9.64399179425052238628e-1;
constexpr double kTanhP1 = -9.92877231001918586564e1;
constexpr double kTanhP2 = -1.61468768441708447952e3;
constexpr double kTanhQ0 = 1.12811678491632931402e2;
constexpr double kTanhQ1 = 2.23548839060100448583e3;
constexpr double kTanhQ2 = 4.84406305325125486048e3;
constexpr double kTanhSplit = 0.625;
constexpr double kTanhSaturate = 22.0;  // tanh rounds to 1 above 19.07

/// tanh in every lane of V (double, or a GCC vector of doubles with U
/// the matching vector of u64), without a branch: both forms are
/// computed on |x| and a compare selects one, so each lane runs exactly
/// the operations of the scalar V = double.
template <class V, class U>
[[gnu::always_inline]] inline V tanh_lanes(V x) {
  const U xb = std::bit_cast<U>(x);
  const V sat = V{} + kTanhSaturate;
  V ax = std::bit_cast<V>(xb & ~kSignBit);
  ax = ax > sat ? sat : ax;  // NaN stays NaN
  // |x| < 0.625: x + x s P(s) / Q(s), s = x^2.
  const V s = ax * ax;
  const V p = (kTanhP0 * s + kTanhP1) * s + kTanhP2;
  const V q = ((s + kTanhQ0) * s + kTanhQ1) * s + kTanhQ2;
  const V small = ax + (ax * s) * (p / q);
  // Above: 1 - 2 / (e^{2|x|} + 1), with 2^k (k <= 64) added to the
  // exponent of exp's kernel value.
  const V y = ax + ax;
  const V shifted = y * kInvLn2 + kRoundShift;
  const V k = shifted - kRoundShift;
  const V e = std::bit_cast<V>(
      std::bit_cast<U>(exp_kernel<V>(y - k * kLn2Hi, k * kLn2Lo)) +
      (std::bit_cast<U>(shifted) << 52));
  const V large = 1.0 - 2.0 / (e + 1.0);
  // A NaN compares false and takes `small`, which carries it through;
  // `large` would add the NaN's payload bits to e's exponent.
  const V t = ax >= kTanhSplit ? large : small;
  return std::bit_cast<V>(std::bit_cast<U>(t) | (xb & kSignBit));
}

typedef double v4d __attribute__((vector_size(4 * sizeof(double))));
typedef u64 v4u __attribute__((vector_size(4 * sizeof(double))));
typedef double v8d __attribute__((vector_size(8 * sizeof(double))));
typedef u64 v8u __attribute__((vector_size(8 * sizeof(double))));

/// The row pass over lanes of V; the tail runs the scalar instantiation.
template <class V, class U>
[[gnu::always_inline]] inline void tanh_row_lanes(double* __restrict x,
                                                  std::size_t n) {
  constexpr std::size_t N = sizeof(V) / sizeof(double);
  std::size_t i = 0;
  for (; i + N <= n; i += N) {
    V v;
    __builtin_memcpy(&v, x + i, sizeof v);
    v = tanh_lanes<V, U>(v);
    __builtin_memcpy(x + i, &v, sizeof v);
  }
  for (; i < n; ++i) x[i] = tanh_lanes<double, u64>(x[i]);
}

// ---- log ---------------------------------------------------------------

constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

/// Splits a positive finite x (subnormals included) as 2^k m with m in
/// [sqrt(2)/2, sqrt(2)); returns m, sets k.
inline double reduce_log(double x, int& k) {
  u64 ix = bits_of(x);
  k = 0;
  if (ix < 0x0010000000000000ull) {
    ix = bits_of(x * 0x1p54);
    k = -54;
  }
  // Offsetting the high word by 1 - sqrt(2)/2 moves the binade boundary
  // to sqrt(2).
  std::uint32_t hx = static_cast<std::uint32_t>(ix >> 32) + (0x3ff00000 - 0x3fe6a09e);
  k += static_cast<int>(hx >> 20) - 0x3ff;
  hx = (hx & 0x000fffff) + 0x3fe6a09e;
  return from_bits((static_cast<u64>(hx) << 32) | (ix & 0xffffffffull));
}

/// log x in two parts for positive finite x, about 2^-64 relative:
/// log m = 2 atanh(s) = 2s + s^3 (2/3 + 2/5 s^2 + ... + 2/27 s^24) with
/// s and s^2 carried in two parts (|s| < 0.1716, so the terms left out
/// are below 2^-70 of the sum).
DD log_dd(double x) {
  int k;
  const double m = reduce_log(x, k);
  const double f = m - 1.0;                // exact
  const DD d = fast_two_sum(2.0, f);       // 2 + f exactly
  const double sh = f / d.hi;
  const DD p = two_prod(sh, d.hi);
  const double sl = (((f - p.hi) - p.lo) - sh * d.lo) / d.hi;
  DD s2 = two_prod(sh, sh);
  s2.lo += 2.0 * sh * sl;
  // The tail 2/5 z + 2/7 z^2 + ... + 2/27 z^12 by Estrin's scheme,
  // which keeps the dependency chain 7 operations deep.
  const double z = s2.hi;
  const double z2 = z * z;
  const double z4 = z2 * z2;
  const double b0 = 2.0 / 5 + z * (2.0 / 7);
  const double b1 = 2.0 / 9 + z * (2.0 / 11);
  const double b2 = 2.0 / 13 + z * (2.0 / 15);
  const double b3 = 2.0 / 17 + z * (2.0 / 19);
  const double b4 = 2.0 / 21 + z * (2.0 / 23);
  const double b5 = 2.0 / 25 + z * (2.0 / 27);
  const double c0 = b0 + z2 * b1;
  const double c1 = b2 + z2 * b3;
  const double c2 = b4 + z2 * b5;
  const double tail = z * ((c0 + z4 * c1) + (z4 * z4) * c2);
  DD poly = fast_two_sum(2.0 / 3, tail);
  poly.lo += 3.700743415417188e-17;        // 2/3 - (double)(2/3)
  DD t = two_prod(s2.hi, poly.hi);         // s^2 P
  t.lo += s2.hi * poly.lo + s2.lo * poly.hi;
  DD u = two_prod(sh, t.hi);               // s^3 P
  u.lo += sh * t.lo + sl * t.hi;
  DD lm = two_sum(2.0 * sh, u.hi);         // log m
  lm.lo += 2.0 * sl + u.lo;
  const double dk = k;
  const DD kl = two_prod(dk, kLn2Lo);      // k ln2 = k kLn2Hi (exact) + kl
  DD kln2 = fast_two_sum(dk * kLn2Hi, kl.hi);
  kln2.lo += kl.lo;
  DD r = two_sum(kln2.hi, lm.hi);
  r.lo += kln2.lo + lm.lo;
  return fast_two_sum(r.hi, r.lo);
}

// ---- sin, cos ----------------------------------------------------------

constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

constexpr double kPio4 = 7.85398163397448278999e-01;
constexpr double kInvPio2 = 6.36619772367581382433e-01;
constexpr double kPio2_1 = 1.57079632673412561417e+00;   // 33 bits
constexpr double kPio2_1t = 6.07710050650619224932e-11;  // pi/2 - kPio2_1
constexpr double kPio2_2 = 6.07710050630396597660e-11;   // 33 bits
constexpr double kPio2_2t = 2.02226624879595063154e-21;  // pi/2 - kPio2_1 - kPio2_2
constexpr double kPio2_3 = 2.02226624871116645580e-21;   // 33 bits
constexpr double kPio2_3t = 8.47842766036889956997e-32;
constexpr double kPio2Hi = 1.5707963267948966;
constexpr double kPio2Lo = 6.123233995736766e-17;
constexpr double kMediumLimit = 0x1p20 * kPio2Hi;

/// sin(x + y) for |x + y| <= pi/4 (about), y a tail below ulp(x) / 2.
inline double sin_kernel(double x, double y, bool has_tail) {
  const double z = x * x;
  const double v = z * x;
  const double r = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  if (!has_tail) return x + v * (kS1 + z * r);
  return x - ((z * (0.5 * y - v * r) - y) - v * kS1);
}

/// cos(x + y) on the same range.
inline double cos_kernel(double x, double y) {
  const double z = x * x;
  const double w = z * z;
  const double r =
      z * (kC1 + z * (kC2 + z * kC3)) + w * w * (kC4 + z * (kC5 + z * kC6));
  const double hz = 0.5 * z;
  const double one_hz = 1.0 - hz;
  return one_hz + (((1.0 - one_hz) - hz) + (z * r - x * y));
}

// 2/pi to 1280 bits, most significant first: bit i of the expansion
// (weight 2^-i, i >= 1) is bit 63 - (i - 1) % 64 of word (i - 1) / 64.
constexpr u64 kTwoOverPi[20] = {
    0xa2f9836e4e441529ull, 0xfc2757d1f534ddc0ull, 0xdb6295993c439041ull,
    0xfe5163abdebbc561ull, 0xb7246e3a424dd2e0ull, 0x06492eea09d1921cull,
    0xfe1deb1cb129a73eull, 0xe88235f52ebb4484ull, 0xe99c7026b45f7e41ull,
    0x3991d639835339f4ull, 0x9c845f8bbdf9283bull, 0x1ff897ffde05980full,
    0xef2f118b5a0a6d1full, 0x6d367ecf27cb09b7ull, 0x4f463f669e5fea2dull,
    0x7527bac7ebe5f17bull, 0x3d0739f78a5292eaull, 0x6bfb5fb11f8d5d08ull,
    0x56033046fc7b6babull, 0xf0cfbc209af4361dull};

__extension__ typedef unsigned __int128 u128;

/// Bits i .. i + 63 of 2/pi (zero for i < 1).
u64 two_over_pi_bits(int i) {
  if (i <= -63) return 0;
  if (i < 1) return two_over_pi_bits(1) >> (1 - i);
  const int at = i - 1;
  const int word = at / 64;
  const int shift = at % 64;
  u64 v = kTwoOverPi[word] << shift;
  if (shift != 0) v |= kTwoOverPi[word + 1] >> (64 - shift);
  return v;
}

/// Payne-Hanek for finite |x| >= 2^20 pi/2: x = m 2^e (m a 53-bit
/// integer), and x * 2/pi mod 4 is m times the 192 bits of 2/pi from bit
/// e - 1 on, scaled by 2^-190: the bits before them add multiples of 4,
/// the bits after them less than 2^-137. Returns the quadrant n and the
/// remainder y0 + y1 = x - n pi/2 for |x|.
[[gnu::noinline]] int rem_pio2_large(double x, double& y0, double& y1) {
  const u64 ix = bits_of(x) & ~kSignBit;
  const int e = static_cast<int>(ix >> 52) - 1075;
  const u64 m = (ix & 0x000fffffffffffffull) | 0x0010000000000000ull;
  const u64 c2 = two_over_pi_bits(e - 1);
  const u64 c1 = two_over_pi_bits(e + 63);
  const u64 c0 = two_over_pi_bits(e + 127);
  const u128 p0 = static_cast<u128>(m) * c0;
  const u128 p1 = static_cast<u128>(m) * c1;
  const u128 mid = (p0 >> 64) + static_cast<u64>(p1);
  const u64 r0 = static_cast<u64>(p0);
  const u64 r1 = static_cast<u64>(mid);
  const u64 r2 = static_cast<u64>(p1 >> 64) + static_cast<u64>(mid >> 64) + m * c2;
  int n = static_cast<int>(r2 >> 62);
  // The fraction below the quadrant, 128 bits; at 1/2 or above the
  // quadrant rounds up and the fraction turns negative.
  u128 frac = (static_cast<u128>((r2 << 2) | (r1 >> 62)) << 64) |
              ((r1 << 2) | (r0 >> 62));
  const bool negative = (frac >> 127) != 0;
  if (negative) {
    n = (n + 1) & 3;
    frac = -frac;
  }
  if (frac == 0) {
    y0 = y1 = 0.0;
    return n;
  }
  const int lz = (frac >> 64) != 0 ? std::countl_zero(static_cast<u64>(frac >> 64))
                                   : 64 + std::countl_zero(static_cast<u64>(frac));
  frac <<= lz;
  const u64 top = static_cast<u64>(frac >> 64);
  const u64 low = ((top & 0x7ff) << 53) | (static_cast<u64>(frac) >> 11);
  const double fh = std::ldexp(static_cast<double>(top >> 11), -53 - lz);
  const double fl = std::ldexp(static_cast<double>(low), -117 - lz);
  // (fh + fl) * pi/2 in two parts.
  DD r = two_prod(fh, kPio2Hi);
  r.lo += fh * kPio2Lo + fl * kPio2Hi;
  y0 = r.hi + r.lo;
  y1 = r.lo - (y0 - r.hi);
  if (negative) {
    y0 = -y0;
    y1 = -y1;
  }
  return n;
}

/// x = n pi/2 + y0 + y1 with |y0 + y1| <= pi/4 (about), for finite
/// |x| > pi/4. Below 2^20 pi/2, n = round(x 2/pi) and the three parts of
/// pi/2 are subtracted while the remainder keeps cancelling (fdlibm's
/// medium case, good to 151 bits).
inline int rem_pio2(double x, double& y0, double& y1) {
  if (!(std::fabs(x) < kMediumLimit)) {
    const int n = rem_pio2_large(x, y0, y1);
    if (x > 0.0) return n;
    y0 = -y0;
    y1 = -y1;
    return -n;
  }
  const double fn = (x * kInvPio2 + kRoundShift) - kRoundShift;
  const int n = static_cast<int>(fn);
  double r = x - fn * kPio2_1;
  double w = fn * kPio2_1t;
  y0 = r - w;
  const int ex = static_cast<int>((bits_of(x) >> 52) & 0x7ff);
  int ey = static_cast<int>((bits_of(y0) >> 52) & 0x7ff);
  if (ex - ey > 16) {
    double t = r;
    w = fn * kPio2_2;
    r = t - w;
    w = fn * kPio2_2t - ((t - r) - w);
    y0 = r - w;
    ey = static_cast<int>((bits_of(y0) >> 52) & 0x7ff);
    if (ex - ey > 49) {
      t = r;
      w = fn * kPio2_3;
      r = t - w;
      w = fn * kPio2_3t - ((t - r) - w);
      y0 = r - w;
    }
  }
  y1 = (r - y0) - w;
  return n;
}

// ---- atan --------------------------------------------------------------

constexpr double kAtanHi[4] = {4.63647609000806093515e-01, 7.85398163397448278999e-01,
                               9.82793723247329054082e-01, 1.57079632679489655800e+00};
constexpr double kAtanLo[4] = {2.26987774529616870924e-17, 3.06161699786838301793e-17,
                               1.39033110312309984516e-17, 6.12323399573676603587e-17};
constexpr double kAT[11] = {
    3.33333333333329318027e-01,  -1.99999999998764832476e-01,
    1.42857142725034663711e-01,  -1.11111104054623557880e-01,
    9.09088713343650656196e-02,  -7.69187620504482999495e-02,
    6.66107313738753120669e-02,  -5.83357013379057348645e-02,
    4.97687799461593236017e-02,  -3.65315727442169155270e-02,
    1.62858201153657823623e-02};
constexpr double kPi = 3.1415926535897931160e+00;
constexpr double kPiLo = 1.2246467991473531772e-16;

/// atan(x) for x >= 0 (atan2 passes |y/x|): about 1/2, 1, 3/2 or
/// infinity, t = (x - c)/(1 + c x) and atan(x) = atan(c) + atan(t).
double atan_nonneg(double x) {
  if (x >= 0x1p66) return kAtanHi[3];
  int id = -1;
  if (x >= 0.4375) {
    if (x < 1.1875) {
      if (x < 0.6875) {
        id = 0;
        x = (2.0 * x - 1.0) / (2.0 + x);
      } else {
        id = 1;
        x = (x - 1.0) / (x + 1.0);
      }
    } else if (x < 2.4375) {
      id = 2;
      x = (x - 1.5) / (1.0 + 1.5 * x);
    } else {
      id = 3;
      x = -1.0 / x;
    }
  } else if (x < 0x1p-27) {
    return x;
  }
  const double z = x * x;
  const double w = z * z;
  const double s1 =
      z * (kAT[0] + w * (kAT[2] + w * (kAT[4] + w * (kAT[6] + w * (kAT[8] + w * kAT[10])))));
  const double s2 = w * (kAT[1] + w * (kAT[3] + w * (kAT[5] + w * (kAT[7] + w * kAT[9]))));
  if (id < 0) return x - x * (s1 + s2);
  return kAtanHi[id] - ((x * (s1 + s2) - kAtanLo[id]) - x);
}

// ---- hypot -------------------------------------------------------------

/// x^2 = hi + lo exactly-enough for hypot (Dekker's split square).
inline DD square(double x) {
  const DD xs = split(x);
  const double hi = x * x;
  return {hi, ((xs.hi * xs.hi - hi) + 2.0 * xs.hi * xs.lo) + xs.lo * xs.lo};
}

/// Whether a finite y is an odd integer (1), an even integer (2) or
/// not an integer (0).
int integer_kind(double y) {
  const double ay = std::fabs(y);
  if (ay >= 0x1p53) return 2;
  if (std::floor(ay) != ay) return 0;
  return (static_cast<u64>(ay) & 1) != 0 ? 1 : 2;
}

}  // namespace

double exp(double x) {
  if (x != x) return x + x;
  if (x > kExpOverflow) return kInf;
  if (x < kExpUnderflow) return 0.0;
  if (std::fabs(x) < 0x1p-28) return 1.0 + x;
  return exp_dd(x, 0.0);
}

double log(double x) {
  if (x != x) return x + x;
  if (x < 0.0) return kNaN;
  if (x == 0.0) return -kInf;
  if (x == kInf) return x;
  int k;
  const double m = reduce_log(x, k);
  const double f = m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double dk = k;
  return s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

double tanh(double x) { return tanh_lanes<double, u64>(x); }

double sin(double x) {
  if (std::fabs(x) < 0x1p-27) return x;  // keeps -0 and subnormals
  if (std::fabs(x) <= kPio4) return sin_kernel(x, 0.0, false);
  if (!(std::fabs(x) < kInf)) return x - x;
  double y0, y1;
  switch (rem_pio2(x, y0, y1) & 3) {
    case 0: return sin_kernel(y0, y1, true);
    case 1: return cos_kernel(y0, y1);
    case 2: return -sin_kernel(y0, y1, true);
    default: return -cos_kernel(y0, y1);
  }
}

double cos(double x) {
  if (std::fabs(x) <= kPio4) return cos_kernel(x, 0.0);
  if (!(std::fabs(x) < kInf)) return x - x;
  double y0, y1;
  switch (rem_pio2(x, y0, y1) & 3) {
    case 0: return cos_kernel(y0, y1);
    case 1: return -sin_kernel(y0, y1, true);
    case 2: return -cos_kernel(y0, y1);
    default: return sin_kernel(y0, y1, true);
  }
}

double atan2(double y, double x) {
  if (x != x || y != y) return x + y;
  // 2 * sign(x) + sign(y), as fdlibm numbers the quadrants.
  const int m = static_cast<int>((bits_of(y) >> 63) | ((bits_of(x) >> 62) & 2));
  const double ax = std::fabs(x);
  const double ay = std::fabs(y);
  if (ay == 0.0) {
    switch (m) {
      case 0:
      case 1: return y;
      case 2: return kPi;
      default: return -kPi;
    }
  }
  if (ax == 0.0) return (m & 1) != 0 ? -kAtanHi[3] : kAtanHi[3];
  if (ax == kInf) {
    if (ay == kInf) {
      switch (m) {
        case 0: return kPi / 4;
        case 1: return -kPi / 4;
        case 2: return 3 * kPi / 4;
        default: return -3 * kPi / 4;
      }
    }
    switch (m) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return kPi;
      default: return -kPi;
    }
  }
  const int ex = static_cast<int>(bits_of(ax) >> 52);
  const int ey = static_cast<int>(bits_of(ay) >> 52);
  if (ey - ex > 64 || ay == kInf) return (m & 1) != 0 ? -kAtanHi[3] : kAtanHi[3];
  // |y/x| < 2^-64 with x < 0 rounds to pi; skip the underflowing divide.
  const double z = ((m & 2) != 0 && ex - ey > 64) ? 0.0 : atan_nonneg(ay / ax);
  switch (m) {
    case 0: return z;
    case 1: return -z;
    case 2: return kPi - (z - kPiLo);
    default: return (z - kPiLo) - kPi;
  }
}

double hypot(double x, double y) {
  u64 ux = bits_of(x) & ~kSignBit;
  u64 uy = bits_of(y) & ~kSignBit;
  if (ux < uy) std::swap(ux, uy);
  const int ex = static_cast<int>(ux >> 52);
  const int ey = static_cast<int>(uy >> 52);
  double ax = from_bits(ux);
  double ay = from_bits(uy);
  if (ey == 0x7ff) return ay;  // inf beats NaN: hypot(inf, NaN) = inf
  if (ex == 0x7ff || uy == 0) return ax;
  if (ex - ey > 64) return ax + ay;
  double scale = 1.0;
  if (ex > 0x3ff + 510) {
    scale = 0x1p700;
    ax *= 0x1p-700;
    ay *= 0x1p-700;
  } else if (ey < 0x3ff - 450) {
    scale = 0x1p-700;
    ax *= 0x1p700;
    ay *= 0x1p700;
  }
  const DD sx = square(ax);
  const DD sy = square(ay);
  return scale * std::sqrt(((sy.lo + sx.lo) + sy.hi) + sx.hi);
}

double pow(double x, double y) {
  if (y == 0.0 || x == 1.0) return 1.0;  // even for a NaN in the other
  if (x != x || y != y) return x + y;
  if (y == 1.0) return x;
  const double ax = std::fabs(x);
  double sign = 1.0;
  if (!(x > 0.0 && x < kInf && std::fabs(y) < kInf)) {
    if (std::fabs(y) == kInf) {
      if (ax == 1.0) return 1.0;  // pow(-1, +-inf)
      return (ax < 1.0) == (y < 0.0) ? kInf : 0.0;
    }
    const int kind = integer_kind(y);
    if (ax == 0.0) {
      if (y < 0.0) return kind == 1 ? 1.0 / x : kInf;  // 1 / -0 = -inf
      return kind == 1 ? x : 0.0;
    }
    if (ax == kInf) {
      const double mag = y < 0.0 ? 0.0 : kInf;
      return x < 0.0 && kind == 1 ? -mag : mag;
    }
    if (kind == 0) return kNaN;  // negative x, non-integer y
    if (kind == 1) sign = -1.0;
  }
  const DD l = log_dd(ax);
  const double approx = y * l.hi;
  if (approx > 709.79) return sign * kInf;
  if (approx < -745.14) return sign * 0.0;
  DD z = two_prod(y, l.hi);
  z.lo += y * l.lo;
  z = fast_two_sum(z.hi, z.lo);
  return sign * exp_dd(z.hi, z.lo);
}

DARL_KERNEL void tanh_row_v4(double* x, std::size_t n) {
  tanh_row_lanes<v4d, v4u>(x, n);
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) DARL_KERNEL void tanh_row_v8(
    double* x, std::size_t n) {
  tanh_row_lanes<v8d, v8u>(x, n);
}
#endif

DARL_KERNEL void tanh_row(double* x, std::size_t n) {
#if defined(__x86_64__)
  static const auto row = cpu_has_avx512f() ? &tanh_row_v8 : &tanh_row_v4;
  row(x, n);
#else
  tanh_row_v4(x, n);
#endif
}

}  // namespace darl::math
