// darl/linalg/gemm_kernels.hpp
//
// PRIVATE to darl_linalg: the three instantiations of the register-blocked
// GEMM micro-kernel behind Matrix::gemm (DESIGN.md §16), and the small-NT
// dot kernel. Only matrix.cpp and tests/test_linalg.cpp include this
// header — the tests call every kernel directly, so the 4-wide path keeps
// its bits checked on a host whose CPUID selects the 8-wide one. No other
// module may include it; everything else goes through Matrix::gemm or
// Matrix::gemm_overwrite, which pick the kernel themselves (CPUID for the
// strict width, fast_math_active() for the fused tier).

#pragma once

#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#define DARL_LINALG_X86 1
#else
#define DARL_LINALG_X86 0
#endif

namespace darl::linalg {

/// One C += alpha * op(A) * B product as the micro-kernel reads it. op(A)
/// element (r, t) sits at a[r * a_row_stride + t * a_t_stride], so all
/// four flavours (NT and TT with B^T packed) share one loop nest; B is
/// row-major k x n with row stride b_stride; C row r starts at
/// c + r * c_stride.
///
/// With `overwrite` set the product is C = alpha * op(A) * B instead: the
/// first K-panel starts every element's chain from +0.0 in a register and
/// never reads C, which gives the bits of fill(0.0) followed by the
/// accumulating product (+0.0 is what that load would return).
struct GemmOperands {
  double alpha = 1.0;
  const double* a = nullptr;
  std::size_t a_row_stride = 0;
  std::size_t a_t_stride = 0;
  const double* b = nullptr;
  std::size_t b_stride = 0;
  double* c = nullptr;
  std::size_t c_stride = 0;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  bool overwrite = false;
};

/// Computes every C row of one product.
using GemmRowsFn = void (*)(const GemmOperands& g);

/// Strict, 4 doubles per vector (portable GCC vector types: AVX under the
/// default -mavx build, SSE2 pairs without it). Runs on every host.
void gemm_rows_v4(const GemmOperands& g);

#if DARL_LINALG_X86
/// Strict, 8 doubles per vector, compiled for AVX-512F. Call only when
/// cpu_has_avx512f(). Bitwise identical to gemm_rows_v4.
void gemm_rows_v8(const GemmOperands& g);

/// The opt-in fast-math tier: 4 doubles per vector, each term landing via
/// a fused multiply-add. Call only when cpu_has_avx2_fma().
void gemm_rows_fused(const GemmOperands& g);
#endif

/// The small-NT dot kernel (C rows below the packing cutoff): reads B
/// itself, n x k with row stride b_stride, instead of a packed B^T; op(A)
/// must have a_t_stride 1. Same per-element chain as the micro-kernel.
void gemm_nt_small(const GemmOperands& g);

/// CPUID: whether gemm_rows_fused may run on this host (always false off
/// x86). gemm_rows_v8 needs cpu_has_avx512f() (darl/common/kernel.hpp).
bool cpu_has_avx2_fma();

}  // namespace darl::linalg
