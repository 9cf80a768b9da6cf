// darl/common/kernel.hpp
//
// DARL_KERNEL marks a function definition as a hot kernel for darl_lint
// (tools/lint_engine.hpp): the bodies of marked definitions are checked by
// heap-alloc-in-kernel (no new / .resize( / .push_back() and
// metric-lookup-in-kernel (no Registry::global() or instrument lookup).
// The lint scans comment-stripped text, so the marker has to be code, not
// a comment. It expands to nothing (tests assert this).
//
// Usage: put it in front of the definition, after any attributes that
// take parentheses:
//   DARL_KERNEL const Matrix& Mlp::forward_batch(const Matrix& x) { ... }
//   __attribute__((target("avx512f"))) DARL_KERNEL void f(...) { ... }
//
// cpu_has_avx512f() is the one CPUID probe such target("avx512f") kernels
// are picked by.

#pragma once

/// This definition is a hot kernel: no heap allocation, no metric lookup.
#define DARL_KERNEL

namespace darl {

/// CPUID: whether the AVX-512F kernels (the 8-wide GEMM, the 8-lane tanh
/// row) may run on this host. Each caller picks its width once per
/// process from it; always false off x86.
inline bool cpu_has_avx512f() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

}  // namespace darl
