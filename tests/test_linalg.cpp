// Unit tests for darl/linalg: vector kernels and the dense matrix.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "darl/common/error.hpp"
#include "darl/common/kernel.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stats.hpp"
#include "darl/linalg/gemm_kernels.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/linalg/vec.hpp"

namespace darl {
namespace {

TEST(Vec, AxpyAddSub) {
  Vec y{1.0, 2.0};
  axpy(2.0, Vec{3.0, 4.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  EXPECT_THROW(axpy(1.0, Vec{1.0}, y), InvalidArgument);

  const Vec s = add({1.0, 2.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  const Vec d = sub({1.0, 2.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(d[0], -2.0);
}

TEST(Vec, DotNormScale) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf({-7.0, 2.0}), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf({}), 0.0);
  Vec x{1.0, -2.0};
  scale(x, -2.0);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
  const Vec sc = scaled({1.0, 2.0}, 3.0);
  EXPECT_DOUBLE_EQ(sc[1], 6.0);
}

TEST(Vec, HadamardClampFinite) {
  const Vec h = hadamard({2.0, 3.0}, {4.0, -1.0});
  EXPECT_DOUBLE_EQ(h[0], 8.0);
  EXPECT_DOUBLE_EQ(h[1], -3.0);
  const Vec c = clamped({-5.0, 0.5, 5.0}, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(c[0], -1.0);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_DOUBLE_EQ(c[2], 1.0);
  EXPECT_TRUE(all_finite({1.0, 2.0}));
  EXPECT_FALSE(all_finite({1.0, std::nan("")}));
}

TEST(Vec, RmsNormScaled) {
  // sqrt(mean((x/s)^2)) with x = {3,4}, s = {1,2} -> sqrt((9+4)/2)
  EXPECT_NEAR(rms_norm_scaled({3.0, 4.0}, {1.0, 2.0}), std::sqrt(6.5), 1e-14);
  EXPECT_THROW(rms_norm_scaled({1.0}, {0.0}), InvalidArgument);
  EXPECT_DOUBLE_EQ(rms_norm_scaled({}, {}), 0.0);
}

TEST(Matrix, Transpose) {
  Matrix a(2, 3);
  // [[1,2,3],[4,5,6]]
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      a(r, c) = static_cast<double>(r * 3 + c + 1);
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, BoundsCheckedAccess) {
  Matrix a(2, 2);
  EXPECT_THROW(a.at(2, 0), InvalidArgument);
  EXPECT_THROW(a.at(0, 2), InvalidArgument);
  a.at(1, 1) = 5.0;
  EXPECT_DOUBLE_EQ(a.at(1, 1), 5.0);
  EXPECT_THROW(Matrix(0, 3), InvalidArgument);
}

TEST(Matrix, KaimingInitStatistics) {
  Rng rng(3);
  Matrix w(64, 256);
  w.randomize_kaiming(rng, 1.0);
  RunningStats s;
  for (double v : w.data()) s.push(v);
  EXPECT_NEAR(s.mean(), 0.0, 0.002);
  EXPECT_NEAR(s.stddev(), 1.0 / 16.0, 0.002);  // gain/sqrt(cols) = 1/16
}

// gemm's operand semantics against a product worked by hand: C = 1 +
// 2 * A * B with A = [[1,2,3],[4,5,6]] and B = [[0,1],[2,3],[4,5]], so
// A * B = [[16,22],[34,49]]. Each flavour gets the operand it transposes
// stored transposed; every value is exact in binary.
TEST(Matrix, GemmFlavoursAgainstManual) {
  Matrix a(2, 3), b(3, 2);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<double>(i + 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = static_cast<double>(i);
  const Matrix at = a.transposed();
  const Matrix bt = b.transposed();
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      Matrix c(2, 2, 1.0);
      Matrix::gemm(2.0, trans_a ? at : a, trans_a, trans_b ? bt : b, trans_b,
                   c);
      const char* flavour = trans_a ? (trans_b ? "TT" : "TN")
                                    : (trans_b ? "NT" : "NN");
      EXPECT_EQ(c(0, 0), 33.0) << flavour;
      EXPECT_EQ(c(0, 1), 45.0) << flavour;
      EXPECT_EQ(c(1, 0), 69.0) << flavour;
      EXPECT_EQ(c(1, 1), 99.0) << flavour;
    }
  }
}

// A shape mismatch throws before gemm writes anything, in every flavour.
TEST(Matrix, GemmRejectsMismatchedShapes) {
  const Matrix a(2, 3, 1.0);  // op(A) is 2x3 (N) or 3x2 (T)
  const Matrix b(4, 2, 1.0);  // op(B) is 4x2 (N) or 2x4 (T)
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      // Inner dimensions 3 or 2 against 4 or 2: only TT agrees (2 == 2).
      const std::size_t m = trans_a ? 3 : 2, n = trans_b ? 4 : 2;
      Matrix c(m, n, 7.0);
      if (trans_a && trans_b) {
        Matrix wrong(n, m, 7.0);  // right sizes, rows and columns swapped
        EXPECT_THROW(Matrix::gemm(1.0, a, true, b, true, wrong),
                     InvalidArgument);
        for (const double v : wrong.data()) EXPECT_EQ(v, 7.0);
        Matrix::gemm(1.0, a, true, b, true, c);
        EXPECT_EQ(c(0, 0), 9.0);  // 7 + two unit terms
        continue;
      }
      EXPECT_THROW(Matrix::gemm(1.0, a, trans_a, b, trans_b, c),
                   InvalidArgument)
          << (trans_a ? "T" : "N") << (trans_b ? "T" : "N");
      for (const double v : c.data()) EXPECT_EQ(v, 7.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked gemm vs. the canonical accumulation chain
//
// Matrix::gemm documents one per-element contract: each C(i, j) is the
// stored value extended by (alpha * a_it) * b_tj terms in ascending t, one
// chained scalar add per term. The reference below is that contract
// written as the plainest possible triple loop — the pre-blocking PR-4
// loop order. Blocking, packing and the vector width must all be
// bitwise-invisible against it, for every flavour and every micro-kernel
// instantiation, on shapes chosen to stress the edges (prime dims, K not
// a multiple of the 64-term panel, column and row tails of the register
// block, m below the NT packing cutoff) plus the learner's own batch-64
// shapes.

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal(0.0, 1.0);
  return m;
}

void reference_gemm(double alpha, const Matrix& a, bool trans_a,
                    const Matrix& b, bool trans_b, Matrix& c) {
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c(i, j);
      for (std::size_t t = 0; t < k; ++t) {
        const double a_it = trans_a ? a(t, i) : a(i, t);
        const double b_tj = trans_b ? b(j, t) : b(t, j);
        acc += (alpha * a_it) * b_tj;
      }
      c(i, j) = acc;
    }
  }
}

struct GemmShape {
  std::size_t m, n, k;
};

/// Edge shapes first, then the learner's (batch 64, hidden 64, 13 inputs,
/// 1- and 2-wide output layers) as m x n x k.
constexpr GemmShape kEdgeShapes[] = {
    {13, 17, 71},   // prime dims, K not a multiple of the 64-term panel
    {3, 5, 2},      // tiny K, column tail narrower than a vector
    {67, 31, 64},   // K exactly one panel, odd m/n
    {9, 129, 130},  // K spanning three panels with a remainder
    {1, 64, 64},    // single output row (NT: below the packing cutoff)
};
constexpr GemmShape kLearnerShapes[] = {
    {64, 64, 64},  // hidden-layer forward, dW and dX
    {64, 13, 64},  // layer-0 dW / dX
    {64, 64, 13},  // layer-0 forward
    {64, 1, 64},   // critic output layer
    {64, 2, 64},   // actor output layer
    {61, 64, 64},  // a row tail of the 4-row register block
    {1, 64, 64},   // batch-1 rows
};

template <class F>
void for_each_shape(F&& f) {
  for (const GemmShape& s : kEdgeShapes) f(s);
  for (const GemmShape& s : kLearnerShapes) f(s);
}

/// Run one flavour over the shape set and demand bitwise equality with the
/// reference chain.
void check_flavour_bitwise(bool trans_a, bool trans_b) {
  Rng rng(17);
  for_each_shape([&](const GemmShape& s) {
    const Matrix a = trans_a ? random_matrix(s.k, s.m, rng)
                             : random_matrix(s.m, s.k, rng);
    const Matrix b = trans_b ? random_matrix(s.n, s.k, rng)
                             : random_matrix(s.k, s.n, rng);
    Matrix c = random_matrix(s.m, s.n, rng);  // nonzero seed values
    const double alpha = -0.75;
    Matrix expected = c;
    reference_gemm(alpha, a, trans_a, b, trans_b, expected);
    Matrix::gemm(alpha, a, trans_a, b, trans_b, c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c.data()[i], expected.data()[i])
          << "flavour " << (trans_a ? "T" : "N") << (trans_b ? "T" : "N")
          << " shape " << s.m << "x" << s.n << "x" << s.k << " element "
          << i;
    }
  });
}

TEST(GemmBitwise, NtMatchesReferenceChain) {
  check_flavour_bitwise(false, true);
}

TEST(GemmBitwise, TnMatchesReferenceChain) {
  check_flavour_bitwise(true, false);
}

TEST(GemmBitwise, NnMatchesReferenceChain) {
  check_flavour_bitwise(false, false);
}

TEST(GemmBitwise, TtMatchesReferenceChain) {
  check_flavour_bitwise(true, true);
}

// ---------------------------------------------------------------------------
// Each micro-kernel instantiation, called directly (gemm_kernels.hpp).
// Matrix::gemm runs only the instantiation CPUID picks, so without these
// the 4-wide path would go unchecked on an AVX-512 host.

/// C += alpha * op(A) * op(B) (C = ... with `overwrite`) through one
/// instantiation: op(B) is handed over as a row-major k x n copy (what
/// Matrix::gemm's NT and TT packing builds), op(A) through its (row
/// stride, t stride) pair.
void run_instantiation(linalg::GemmRowsFn fn, double alpha, const Matrix& a,
                       bool trans_a, const Matrix& b, bool trans_b,
                       Matrix& c, bool overwrite = false) {
  const Matrix bk = trans_b ? b.transposed() : b;
  linalg::GemmOperands g;
  g.overwrite = overwrite;
  g.alpha = alpha;
  g.a = a.data().data();
  g.a_row_stride = trans_a ? 1 : a.cols();
  g.a_t_stride = trans_a ? a.cols() : 1;
  g.b = bk.data().data();
  g.b_stride = bk.cols();
  g.c = c.data().data();
  g.c_stride = c.cols();
  g.m = c.rows();
  g.n = c.cols();
  g.k = bk.rows();
  fn(g);
}

void check_instantiation_bitwise(linalg::GemmRowsFn fn) {
  Rng rng(19);
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for_each_shape([&](const GemmShape& s) {
        const Matrix a = trans_a ? random_matrix(s.k, s.m, rng)
                                 : random_matrix(s.m, s.k, rng);
        const Matrix b = trans_b ? random_matrix(s.n, s.k, rng)
                                 : random_matrix(s.k, s.n, rng);
        Matrix c = random_matrix(s.m, s.n, rng);
        const double alpha = -0.75;
        Matrix expected = c;
        reference_gemm(alpha, a, trans_a, b, trans_b, expected);
        run_instantiation(fn, alpha, a, trans_a, b, trans_b, c);
        for (std::size_t i = 0; i < c.size(); ++i) {
          ASSERT_EQ(c.data()[i], expected.data()[i])
              << "flavour " << (trans_a ? "T" : "N") << (trans_b ? "T" : "N")
              << " shape " << s.m << "x" << s.n << "x" << s.k << " element "
              << i;
        }
      });
    }
  }
}

TEST(GemmBitwise, PortableInstantiationMatchesReferenceChain) {
  check_instantiation_bitwise(&linalg::gemm_rows_v4);
}

TEST(GemmBitwise, Avx512InstantiationMatchesReferenceChain) {
#if DARL_LINALG_X86
  if (!cpu_has_avx512f()) {
    GTEST_SKIP() << "CPUID reports no avx512f: the 8-wide instantiation "
                    "cannot run on this host";
  }
  check_instantiation_bitwise(&linalg::gemm_rows_v8);
#else
  GTEST_SKIP() << "the 8-wide instantiation exists only on x86";
#endif
}

/// C += alpha * A * B^T (C = ... with `overwrite`) through the small-NT
/// dot kernel, which reads B (n x k) in place.
void run_nt_small(double alpha, const Matrix& a, const Matrix& b, Matrix& c,
                  bool overwrite) {
  linalg::GemmOperands g;
  g.overwrite = overwrite;
  g.alpha = alpha;
  g.a = a.data().data();
  g.a_row_stride = a.cols();
  g.a_t_stride = 1;
  g.b = b.data().data();
  g.b_stride = b.cols();
  g.c = c.data().data();
  g.c_stride = c.cols();
  g.m = c.rows();
  g.n = c.cols();
  g.k = a.cols();
  linalg::gemm_nt_small(g);
}

/// One of the kernels behind Matrix::gemm; `nt_only` for the small-NT
/// dot kernel, the others take every flavour.
struct Kernel {
  const char* name;
  std::function<void(double, const Matrix&, bool, const Matrix&, bool,
                     Matrix&, bool)>
      run;
  bool nt_only;
};

std::vector<Kernel> kernels_on_this_host() {
  const auto instantiation = [](linalg::GemmRowsFn fn) {
    return [fn](double alpha, const Matrix& a, bool ta, const Matrix& b,
                bool tb, Matrix& c, bool overwrite) {
      run_instantiation(fn, alpha, a, ta, b, tb, c, overwrite);
    };
  };
  std::vector<Kernel> out;
  out.push_back({"gemm_rows_v4", instantiation(&linalg::gemm_rows_v4), false});
#if DARL_LINALG_X86
  if (cpu_has_avx512f()) {
    out.push_back({"gemm_rows_v8", instantiation(&linalg::gemm_rows_v8), false});
  }
#endif
  out.push_back({"nt_small",
                 [](double alpha, const Matrix& a, bool, const Matrix& b, bool,
                    Matrix& c, bool overwrite) {
                   run_nt_small(alpha, a, b, c, overwrite);
                 },
                 true});
  out.push_back({"Matrix::gemm / gemm_overwrite",
                 [](double alpha, const Matrix& a, bool ta, const Matrix& b,
                    bool tb, Matrix& c, bool overwrite) {
                   if (overwrite) {
                     Matrix::gemm_overwrite(alpha, a, ta, b, tb, c);
                   } else {
                     Matrix::gemm(alpha, a, ta, b, tb, c);
                   }
                 },
                 false});
  return out;
}

// Overwrite mode: C = alpha * op(A) * op(B) equals fill(0.0) followed by
// the accumulating product, bit for bit, in every kernel and flavour over
// the edge shapes (K spanning several panels included) and the learner's.
// C starts as NaN, so a kernel that read any element of it would show.
// A second pass with A all zeros and alpha = -1 makes every term -0.0,
// so only a +0.0 seed gives the +0.0 that fill(0.0) gives.
TEST(GemmBitwise, OverwriteEqualsZeroFillThenAccumulate) {
  Rng rng(31);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Kernel& kernel : kernels_on_this_host()) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        if (kernel.nt_only && (trans_a || !trans_b)) continue;
        for_each_shape([&](const GemmShape& s) {
          for (const bool zero_terms : {false, true}) {
            const std::size_t ar = trans_a ? s.k : s.m, ac = trans_a ? s.m : s.k;
            const Matrix a = zero_terms ? Matrix(ar, ac, 0.0)
                                        : random_matrix(ar, ac, rng);
            const Matrix b = trans_b ? random_matrix(s.n, s.k, rng)
                                     : random_matrix(s.k, s.n, rng);
            const double alpha = zero_terms ? -1.0 : -0.75;
            Matrix expected(s.m, s.n);
            expected.fill(0.0);
            kernel.run(alpha, a, trans_a, b, trans_b, expected, false);
            Matrix c(s.m, s.n, nan);
            kernel.run(alpha, a, trans_a, b, trans_b, c, true);
            for (std::size_t i = 0; i < c.size(); ++i) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(c.data()[i]),
                        std::bit_cast<std::uint64_t>(expected.data()[i]))
                  << kernel.name << " flavour " << (trans_a ? "T" : "N")
                  << (trans_b ? "T" : "N") << " shape " << s.m << "x" << s.n
                  << "x" << s.k << (zero_terms ? " zero terms" : "")
                  << " element " << i;
            }
          }
        });
      }
    }
  }
}

// Contraction detector. (1 + 2^-27) * (1 - 2^-27) = 1 - 2^-54 rounds to
// 1.0, so C = -1 plus that product is exactly 0.0 when the multiply and
// the add round separately — and -2^-54 when they are fused into one FMA.
// One term (k = 1, alpha = 1) over each learner shape's m x n reaches
// every lane, the two-vector blocks, the padded column tail and the row
// tail, so a compiler that contracted any strict path shows up here.
void check_contraction(linalg::GemmRowsFn fn, double expected) {
  for (const GemmShape& s : kLearnerShapes) {
    const Matrix a(s.m, 1, 1.0 + 0x1p-27);
    const Matrix b(1, s.n, 1.0 - 0x1p-27);
    Matrix c(s.m, s.n, -1.0);
    run_instantiation(fn, 1.0, a, false, b, false, c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c.data()[i], expected)
          << "shape " << s.m << "x" << s.n << " element " << i;
    }
  }
}

/// The detector in overwrite mode, where C is never read: a first term of
/// exactly -1 ((-1) * 1, k = 2) stands in for the stored -1, so the second
/// term meets -1 in the accumulator just as above. C starts as NaN.
void check_contraction_overwrite(const Kernel& kernel, bool trans_a,
                                 bool trans_b) {
  for (const GemmShape& s : kLearnerShapes) {
    Matrix a(s.m, 2), b(2, s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      a(i, 0) = -1.0;
      a(i, 1) = 1.0 + 0x1p-27;
    }
    for (std::size_t j = 0; j < s.n; ++j) {
      b(0, j) = 1.0;
      b(1, j) = 1.0 - 0x1p-27;
    }
    const Matrix op_a = trans_a ? a.transposed() : a;
    const Matrix op_b = trans_b ? b.transposed() : b;
    Matrix c(s.m, s.n, std::numeric_limits<double>::quiet_NaN());
    kernel.run(1.0, op_a, trans_a, op_b, trans_b, c, true);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c.data()[i], 0.0)
          << kernel.name << " flavour " << (trans_a ? "T" : "N")
          << (trans_b ? "T" : "N") << " shape " << s.m << "x" << s.n
          << " element " << i;
    }
  }
}

TEST(GemmBitwise, StrictPathsNeverContract) {
  check_contraction(&linalg::gemm_rows_v4, 0.0);
#if DARL_LINALG_X86
  if (cpu_has_avx512f()) check_contraction(&linalg::gemm_rows_v8, 0.0);
#endif
  // Overwrite mode, through every kernel and flavour.
  for (const Kernel& kernel : kernels_on_this_host()) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        if (kernel.nt_only && (trans_a || !trans_b)) continue;
        check_contraction_overwrite(kernel, trans_a, trans_b);
      }
    }
  }
  // And the dispatched gemm in every flavour (nt_small included), at
  // k = 1.
  for (const GemmShape& s : kLearnerShapes) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        const Matrix a = trans_a ? Matrix(1, s.m, 1.0 + 0x1p-27)
                                 : Matrix(s.m, 1, 1.0 + 0x1p-27);
        const Matrix b = trans_b ? Matrix(s.n, 1, 1.0 - 0x1p-27)
                                 : Matrix(1, s.n, 1.0 - 0x1p-27);
        Matrix c(s.m, s.n, -1.0);
        Matrix::gemm(1.0, a, trans_a, b, trans_b, c);
        for (std::size_t i = 0; i < c.size(); ++i) {
          ASSERT_EQ(c.data()[i], 0.0)
              << "flavour " << (trans_a ? "T" : "N") << (trans_b ? "T" : "N")
              << " shape " << s.m << "x" << s.n << " element " << i;
        }
      }
    }
  }
}

// The serving contract at the gemm level: row i of a batched NT product
// equals the same row computed as a batch of one (the small-m dot kernel),
// bitwise — rows are independent, so batching is invisible per sample.
TEST(GemmBitwise, NtBatchedRowsEqualPerRowProducts) {
  Rng rng(23);
  const std::size_t m = 64, n = 33, k = 67;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix c(m, n, 0.0);
  Matrix::gemm(1.0, a, false, b, true, c);
  for (std::size_t i = 0; i < m; ++i) {
    Matrix arow(1, k);
    std::copy(a.row(i), a.row(i) + k, arow.data().begin());
    Matrix crow(1, n, 0.0);
    Matrix::gemm(1.0, arow, false, b, true, crow);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c(i, j), crow(0, j)) << "row " << i << " col " << j;
    }
  }
}

// gemm runs on its caller's thread, and serve workers, trial lanes and
// actor threads call it at once. Concurrent callers must each get the
// reference bits: the NT/TT packing scratch is per thread, and nothing
// else is shared. Each thread walks the shape set from a different start,
// so differently sized products (and scratch growth) overlap in time.
TEST(GemmBitwise, ConcurrentCallersMatchReferenceChain) {
  std::vector<GemmShape> shapes;
  for_each_shape([&](const GemmShape& s) { shapes.push_back(s); });
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      Rng rng(41 + tid);
      for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          const GemmShape& s = shapes[(i + tid * 3) % shapes.size()];
          for (const bool trans_a : {false, true}) {
            for (const bool trans_b : {false, true}) {
              const Matrix a = trans_a ? random_matrix(s.k, s.m, rng)
                                       : random_matrix(s.m, s.k, rng);
              const Matrix b = trans_b ? random_matrix(s.n, s.k, rng)
                                       : random_matrix(s.k, s.n, rng);
              Matrix c = random_matrix(s.m, s.n, rng);
              Matrix expected = c;
              reference_gemm(-0.75, a, trans_a, b, trans_b, expected);
              Matrix::gemm(-0.75, a, trans_a, b, trans_b, c);
              if (c.data() != expected.data()) ++mismatches[tid];
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    EXPECT_EQ(mismatches[tid], 0u) << "thread " << tid;
  }
}

// The fast-math tier is opt-in, exempt from the bitwise contract, and
// bounded: each element may differ from the exactly-rounded result only by
// the fused-rounding slack k * u * sum_t |alpha * a_it * b_tj| (DESIGN.md
// §16). Checked against the fused instantiation itself, which must really
// fuse (the contraction detector reads -2^-54 in every lane), and the
// dispatched gemm must route to it while the tier is on.
TEST(GemmBitwise, FastMathStaysWithinDivergenceBound) {
#if DARL_LINALG_X86
  if (!linalg::cpu_has_avx2_fma()) {
    GTEST_SKIP() << "CPUID reports no avx2+fma: the fast-math tier stays off";
  }
  check_contraction(&linalg::gemm_rows_fused, -0x1p-54);
  Rng rng(29);
  const std::size_t m = 32, n = 48, k = 96;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix exact(m, n, 0.0);
  Matrix::gemm(1.0, a, false, b, true, exact);
  Matrix fused(m, n, 0.0);
  run_instantiation(&linalg::gemm_rows_fused, 1.0, a, false, b, true, fused);
  const double u = 0x1p-52;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double mag = 0.0;
      for (std::size_t t = 0; t < k; ++t) mag += std::abs(a(i, t) * b(j, t));
      ASSERT_LE(std::abs(fused(i, j) - exact(i, j)),
                static_cast<double>(k) * u * mag)
          << "element (" << i << "," << j << ")";
    }
  }
  set_fast_math(true);
  ASSERT_TRUE(fast_math_active());
  Matrix dispatched(m, n, 0.0);
  Matrix::gemm(1.0, a, false, b, true, dispatched);
  set_fast_math(false);
  for (std::size_t i = 0; i < dispatched.size(); ++i) {
    ASSERT_EQ(dispatched.data()[i], fused.data()[i]) << "element " << i;
  }
#else
  GTEST_SKIP() << "the fast-math tier exists only on x86";
#endif
}

}  // namespace
}  // namespace darl
