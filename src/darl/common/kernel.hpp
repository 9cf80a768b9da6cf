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

#pragma once

/// This definition is a hot kernel: no heap allocation, no metric lookup.
#define DARL_KERNEL
