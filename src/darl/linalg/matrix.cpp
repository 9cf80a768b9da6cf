#include "darl/linalg/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "darl/common/error.hpp"
#include "darl/common/kernel.hpp"
#include "darl/common/rng.hpp"
#include "darl/linalg/gemm_kernels.hpp"

#if DARL_LINALG_X86
#include <immintrin.h>
#endif

namespace darl {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  DARL_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

double& Matrix::at(std::size_t r, std::size_t c) {
  DARL_CHECK(r < rows_ && c < cols_,
             "matrix index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  DARL_CHECK(r < rows_ && c < cols_,
             "matrix index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return (*this)(r, c);
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  DARL_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::fill(double value) {
  for (double& v : data_) v = value;
}

namespace {

// ---------------------------------------------------------------------------
// Blocked gemm kernels (DESIGN.md §16).
//
// Every kernel below accumulates each C element over the contraction index
// t in ascending order with a scalar chain seeded from the C value already
// in memory (or, in overwrite mode, from +0.0 in a register for the first
// panel). K-panel boundaries re-seed the chain from C between panels —
// the same additions in the same order, just interleaved with other rows —
// so blocking, packing and the vector width are all bitwise-neutral. Only
// the opt-in fast-math tier (fused multiply-add) rounds differently, and
// only by the documented divergence bound. The library is compiled with
// -ffp-contract=off: under an AVX-512 (or FMA) target GCC would otherwise
// fuse the strict kernels' `acc += a * b` into one rounding.
// ---------------------------------------------------------------------------

/// K-panel length: the contraction index is walked in chunks of this many
/// terms so a panel of the row-major operand stays cache-hot across all
/// C rows (64 terms x 256 cols x 8 bytes = 128 KiB, L2-sized).
constexpr std::size_t kPanelK = 64;

/// C rows the micro-kernel keeps in registers at once (each with two
/// vectors of columns): 4 x 2 accumulators hide the add latency.
constexpr std::size_t kBlockRows = 4;

/// NT output rows below which packing op(B) costs more than the
/// micro-kernel saves; small shapes use the dot-product kernel
/// gemm_nt_small.
constexpr std::size_t kNtPackMinRows = 8;

/// Fast-math tier switch. Enabled only when DARL_FAST_MATH=1 AND the CPU
/// has AVX2+FMA; darl_study force-disables it so campaign CSVs are exempt
/// by construction.
bool fast_math_env_default() {
  const char* raw = std::getenv("DARL_FAST_MATH");
  return raw != nullptr && raw[0] == '1' && linalg::cpu_has_avx2_fma();
}

std::atomic<bool> g_fast_math{fast_math_env_default()};

/// Per-thread packing scratch for the NT and TT flavours' transposed copy
/// of op(B). Thread-local (gemm may run concurrently from serve replicas and
/// parallel trials); grows to the largest k x n seen and then stops
/// allocating. Growth lives here, outside the kernel bodies, per the
/// darl_lint no-alloc-in-kernel rule.
double* pack_workspace(std::size_t need) {
  thread_local Vec buf;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

/// dst (k x n row-major) = B^T, with B n x k row-major. Pure layout
/// change: every value is copied, none recomputed.
void pack_b_transposed(const double* b_base, std::size_t b_stride,
                       std::size_t n, std::size_t k, double* dst) {
  for (std::size_t j = 0; j < n; ++j) {
    const double* brow = b_base + j * b_stride;
    for (std::size_t t = 0; t < k; ++t) dst[t * n + j] = brow[t];
  }
}

// The micro-kernel is written once over a vector type V and instantiated
// three times (gemm_rows_v4 / _v8 / _fused below). V supplies the register
// type, its width in doubles, and the one arithmetic step: `acc += a * b`
// for the strict tiers, a fused multiply-add for the fast-math tier. Every
// template here is always_inline with internal linkage, so each body is
// compiled only inside the instantiating function and inherits its target
// ISA.

/// Strict step over GCC vector types: the scalar `a` is broadcast to every
/// lane, and each lane rounds the product and then the sum exactly like
/// mulsd/addsd. Portable: without -mavx the 4-wide type lowers to SSE2
/// pairs with the same bits.
template <std::size_t W>
struct StrictVec {
  typedef double reg __attribute__((vector_size(W * sizeof(double))));
  static constexpr std::size_t kWidth = W;
  [[gnu::always_inline]] static void step(reg& acc, double a, const reg& b) {
    acc += a * b;
  }
};

#if DARL_LINALG_X86
/// Fast-math step: identical term order, but each term lands via a fused
/// multiply-add (one rounding instead of two). The target attribute lets
/// it inline only into gemm_rows_fused, which carries the same ISA.
struct FusedVec {
  using reg = __m256d;
  static constexpr std::size_t kWidth = 4;
  __attribute__((target("avx2,fma"))) static void step(reg& acc, double a,
                                                       const reg& b) {
    acc = _mm256_fmadd_pd(_mm256_set1_pd(a), b, acc);
  }
};
#endif  // DARL_LINALG_X86

template <class R>
[[gnu::always_inline]] inline void load_vec(R& v, const double* p) {
  __builtin_memcpy(&v, p, sizeof v);
}

template <class R>
[[gnu::always_inline]] inline void store_vec(double* p, const R& v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// The register block: R rows x NV vectors of C stay in registers across
/// one K-panel of kt terms. ap holds the panel's pre-scaled op(A) values
/// (ap[i * kPanelK + t] = alpha * a_it), b the panel's first B row. The
/// chains start from C, or from +0.0 without reading C when zero_seed is
/// set. Lanes are independent, so every element's chain is exactly the
/// scalar one.
template <class V, std::size_t R, std::size_t NV>
DARL_KERNEL [[gnu::always_inline]] inline void micro_block(
    const double* ap, std::size_t kt, const double* b, std::size_t ldb,
    bool zero_seed, double* c, std::size_t ldc) {
  using reg = typename V::reg;
  constexpr std::size_t W = V::kWidth;
  reg acc[R][NV] = {};
  if (!zero_seed) {
    for (std::size_t i = 0; i < R; ++i)
      for (std::size_t v = 0; v < NV; ++v) load_vec(acc[i][v], c + i * ldc + v * W);
  }
  for (std::size_t t = 0; t < kt; ++t) {
    reg bt[NV] = {};
    for (std::size_t v = 0; v < NV; ++v) load_vec(bt[v], b + t * ldb + v * W);
    for (std::size_t i = 0; i < R; ++i) {
      const double a = ap[i * kPanelK + t];
      for (std::size_t v = 0; v < NV; ++v) V::step(acc[i][v], a, bt[v]);
    }
  }
  for (std::size_t i = 0; i < R; ++i)
    for (std::size_t v = 0; v < NV; ++v) store_vec(c + i * ldc + v * W, acc[i][v]);
}

/// One K-panel as the row blocks see it: ap holds the block's pre-scaled
/// op(A) values, b the panel's first B row (row stride ldb); the last rem
/// < 2W columns come from btail, a zero-padded copy of B's tail columns
/// with row stride tail_w (one or two vectors). zero_seed: the chains
/// start from +0.0 instead of C (the first panel of an overwrite).
struct Panel {
  const double* ap = nullptr;
  std::size_t kt = 0;
  const double* b = nullptr;
  std::size_t ldb = 0;
  std::size_t n_full = 0;
  const double* btail = nullptr;
  std::size_t rem = 0;
  std::size_t tail_w = 0;
  bool zero_seed = false;
};

/// R rows of C: two-vector blocks over the first n_full columns, then the
/// tail columns over btail and a zero-padded stack copy of the C tail. The
/// pad lanes compute on zeros and are never stored.
template <class V, std::size_t R>
DARL_KERNEL [[gnu::always_inline]] inline void micro_rows(const Panel& p,
                                                          double* c,
                                                          std::size_t ldc) {
  constexpr std::size_t W = V::kWidth;
  for (std::size_t j = 0; j < p.n_full; j += 2 * W)
    micro_block<V, R, 2>(p.ap, p.kt, p.b + j, p.ldb, p.zero_seed, c + j, ldc);
  if (p.rem == 0) return;
  // The tail is narrow, so it is copied column by column: a loop along a
  // row would compile to a library memcpy call per row. A zero-seeded
  // panel reads no C, so it copies nothing in.
  const std::size_t tw = p.tail_w;
  double* ct = c + p.n_full;
  double ctail[R * 2 * W] = {};
  if (!p.zero_seed) {
    for (std::size_t j = 0; j < p.rem; ++j)
      for (std::size_t i = 0; i < R; ++i) ctail[i * tw + j] = ct[i * ldc + j];
  }
  if (tw > W) {
    micro_block<V, R, 2>(p.ap, p.kt, p.btail, tw, p.zero_seed, ctail, tw);
  } else {
    micro_block<V, R, 1>(p.ap, p.kt, p.btail, tw, p.zero_seed, ctail, tw);
  }
  for (std::size_t j = 0; j < p.rem; ++j)
    for (std::size_t i = 0; i < R; ++i) ct[i * ldc + j] = ctail[i * tw + j];
}

/// The loop nest: C += alpha * op(A) * B (C = ... in overwrite mode, whose
/// first panel seeds from +0.0). K-panel outermost, so one panel of B
/// stays hot across all C rows.
/// Per panel, B's tail columns are copied once into a zero-padded buffer;
/// per panel and block of kBlockRows rows, alpha * a_it is computed once
/// (the rounding every term uses), then the block's chains run over the
/// panel in ascending t. Scratch lives on the stack; allocates nothing.
template <class V>
DARL_KERNEL [[gnu::always_inline]] inline void micro_gemm(
    const linalg::GemmOperands& g) {
  constexpr std::size_t W = V::kWidth;
  // Stack scratch, written before every read: ap per row block, btail
  // per panel when there is a tail. Zero-initialising them on every call
  // would cost a small product (64x64x1) about a fifth of its time.
  double ap[kBlockRows * kPanelK];
  double btail[kPanelK * 2 * W];
  Panel p;
  p.ap = ap;
  p.ldb = g.b_stride;
  p.n_full = g.n - g.n % (2 * W);
  p.btail = btail;
  p.rem = g.n - p.n_full;
  p.tail_w = p.rem > W ? 2 * W : W;
  for (std::size_t t0 = 0; t0 < g.k; t0 += kPanelK) {
    p.kt = std::min(kPanelK, g.k - t0);
    p.b = g.b + t0 * g.b_stride;
    p.zero_seed = g.overwrite && t0 == 0;
    if (p.rem != 0) {  // column by column, as in micro_rows
      std::fill_n(btail, p.kt * p.tail_w, 0.0);
      for (std::size_t j = 0; j < p.rem; ++j) {
        for (std::size_t t = 0; t < p.kt; ++t)
          btail[t * p.tail_w + j] = p.b[t * p.ldb + p.n_full + j];
      }
    }
    for (std::size_t r = 0; r < g.m; r += kBlockRows) {
      const std::size_t rows = std::min(kBlockRows, g.m - r);
      const double* a = g.a + r * g.a_row_stride + t0 * g.a_t_stride;
      if (g.a_t_stride == 1) {  // NT / NN: op(A) rows are contiguous in t
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t t = 0; t < p.kt; ++t)
            ap[i * kPanelK + t] = g.alpha * a[i * g.a_row_stride + t];
        }
      } else {  // TN: the block's rows are adjacent at each t
        for (std::size_t t = 0; t < p.kt; ++t) {
          for (std::size_t i = 0; i < rows; ++i)
            ap[i * kPanelK + t] = g.alpha * a[i * g.a_row_stride + t * g.a_t_stride];
        }
      }
      double* c = g.c + r * g.c_stride;
      switch (rows) {
        case 4: micro_rows<V, 4>(p, c, g.c_stride); break;
        case 3: micro_rows<V, 3>(p, c, g.c_stride); break;
        case 2: micro_rows<V, 2>(p, c, g.c_stride); break;
        default: micro_rows<V, 1>(p, c, g.c_stride); break;
      }
    }
  }
}

/// The instantiation for the current call: the fused one when the
/// fast-math tier is on, else the widest strict one CPUID allows (chosen
/// once per process).
linalg::GemmRowsFn rows_kernel() {
#if DARL_LINALG_X86
  if (fast_math_active()) return &linalg::gemm_rows_fused;
  static const linalg::GemmRowsFn strict =
      cpu_has_avx512f() ? &linalg::gemm_rows_v8 : &linalg::gemm_rows_v4;
  return strict;
#else
  return &linalg::gemm_rows_v4;
#endif
}

}  // namespace

namespace linalg {

/// Register-blocked dot-product NT kernel for small outputs (m below
/// kNtPackMinRows): four C columns share one ascending-t pass, each with
/// its own scalar chain, started from C or, in overwrite mode, from +0.0.
/// Packing would cost as much as the whole product at these sizes. Always
/// scalar — the fast-math tier only covers the blocked shapes.
DARL_KERNEL void gemm_nt_small(const GemmOperands& g) {
  const double alpha = g.alpha;
  const std::size_t k = g.k;
  for (std::size_t r = 0; r < g.m; ++r) {
    const double* pa = g.a + r * g.a_row_stride;
    double* crow = g.c + r * g.c_stride;
    std::size_t j = 0;
    for (; j + 4 <= g.n; j += 4) {
      const double* pb0 = g.b + (j + 0) * g.b_stride;
      const double* pb1 = g.b + (j + 1) * g.b_stride;
      const double* pb2 = g.b + (j + 2) * g.b_stride;
      const double* pb3 = g.b + (j + 3) * g.b_stride;
      double acc0 = g.overwrite ? 0.0 : crow[j + 0];
      double acc1 = g.overwrite ? 0.0 : crow[j + 1];
      double acc2 = g.overwrite ? 0.0 : crow[j + 2];
      double acc3 = g.overwrite ? 0.0 : crow[j + 3];
      for (std::size_t t = 0; t < k; ++t) {
        const double av = alpha * pa[t];
        acc0 += av * pb0[t];
        acc1 += av * pb1[t];
        acc2 += av * pb2[t];
        acc3 += av * pb3[t];
      }
      crow[j + 0] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < g.n; ++j) {
      const double* pb = g.b + j * g.b_stride;
      double acc = g.overwrite ? 0.0 : crow[j];
      for (std::size_t t = 0; t < k; ++t) acc += (alpha * pa[t]) * pb[t];
      crow[j] = acc;
    }
  }
}

DARL_KERNEL void gemm_rows_v4(const GemmOperands& g) {
  micro_gemm<StrictVec<4>>(g);
}

#if DARL_LINALG_X86
__attribute__((target("avx512f"))) DARL_KERNEL void gemm_rows_v8(
    const GemmOperands& g) {
  micro_gemm<StrictVec<8>>(g);
}

__attribute__((target("avx2,fma"))) DARL_KERNEL void gemm_rows_fused(
    const GemmOperands& g) {
  micro_gemm<FusedVec>(g);
}
#endif

bool cpu_has_avx2_fma() {
#if DARL_LINALG_X86 && defined(__GNUC__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace linalg

void set_fast_math(bool on) {
  g_fast_math.store(on && linalg::cpu_has_avx2_fma(), std::memory_order_relaxed);
}

bool fast_math_active() {
  return g_fast_math.load(std::memory_order_relaxed);
}

namespace {

/// The one path behind Matrix::gemm and Matrix::gemm_overwrite: checks
/// the shapes, then runs gemm_nt_small or the CPUID-picked micro-kernel.
DARL_KERNEL void run_gemm(double alpha, const Matrix& a, bool trans_a,
                          const Matrix& b, bool trans_b, Matrix& c,
                          bool overwrite) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t kdim = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  const std::size_t bk = trans_b ? b.cols() : b.rows();
  DARL_CHECK(kdim == bk, "gemm inner-dimension mismatch: op(A) is "
                             << m << "x" << kdim << ", op(B) is " << bk << "x"
                             << n);
  DARL_CHECK(c.rows() == m && c.cols() == n,
             "gemm output shape mismatch: C is " << c.rows() << "x" << c.cols()
                                                 << ", expected " << m << "x"
                                                 << n);
  // op(A) is read through (row stride, t stride) — (lda, 1) for A, (1,
  // lda) for A^T.
  linalg::GemmOperands g;
  g.alpha = alpha;
  g.a = a.data().data();
  g.a_row_stride = trans_a ? 1 : a.cols();
  g.a_t_stride = trans_a ? a.cols() : 1;
  g.b = b.data().data();
  g.b_stride = b.cols();
  g.c = c.data().data();
  g.c_stride = c.cols();
  g.m = m;
  g.n = n;
  g.k = kdim;
  g.overwrite = overwrite;
  if (!trans_a && trans_b && m < kNtPackMinRows) {
    // Small NT (batch 1-7 serving): packing op(B) would cost as much as
    // the product; the dot-product kernel reads B^T in place.
    linalg::gemm_nt_small(g);
    return;
  }
  // Every other flavour runs the micro-kernel over a row-major B: the NT
  // and TT flavours first pack B^T into a k x n buffer (layout only, no
  // arithmetic).
  if (trans_b) {
    double* pack = pack_workspace(kdim * n);
    pack_b_transposed(g.b, b.cols(), n, kdim, pack);
    g.b = pack;
    g.b_stride = n;
  }
  rows_kernel()(g);
}

}  // namespace

void Matrix::gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
                  bool trans_b, Matrix& c) {
  run_gemm(alpha, a, trans_a, b, trans_b, c, false);
}

void Matrix::gemm_overwrite(double alpha, const Matrix& a, bool trans_a,
                            const Matrix& b, bool trans_b, Matrix& c) {
  run_gemm(alpha, a, trans_a, b, trans_b, c, true);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

void Matrix::randomize_kaiming(Rng& rng, double gain) {
  DARL_CHECK(gain > 0.0, "non-positive init gain " << gain);
  const double stddev = gain / std::sqrt(static_cast<double>(cols_));
  for (double& v : data_) v = rng.normal(0.0, stddev);
}

}  // namespace darl
