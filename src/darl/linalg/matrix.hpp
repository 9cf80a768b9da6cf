// darl/linalg/matrix.hpp
//
// Dense row-major matrix and the GEMM that the nn::Mlp batch path is built
// on. The GEMM extends each output element from its stored value by one
// scalar chain over the contraction index in ascending order, whatever the
// flavour, blocking or vector width, so batched and per-sample results
// are bitwise identical.

#pragma once

#include <cstddef>

#include "darl/linalg/vec.hpp"

namespace darl {

class Rng;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Unchecked element access (row-major).
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Bounds-checked element access; throws darl::InvalidArgument.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Flat row-major storage (e.g. for optimizers and serialization).
  Vec& data() { return data_; }
  const Vec& data() const { return data_; }

  /// Pointer to the start of row `r` (unchecked).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  /// Change the dimensions to rows x cols, reusing the existing storage.
  /// Element values are unspecified afterwards (callers overwrite). Never
  /// shrinks capacity, so repeated reshapes of a workspace matrix stop
  /// allocating once the largest shape has been seen.
  void reshape(std::size_t rows, std::size_t cols);

  /// Set every element to `value`.
  void fill(double value);

  /// C += alpha * op(A) * op(B), where op is the identity or the transpose.
  /// C must be pre-shaped to op(A).rows x op(B).cols; the only heap scratch
  /// is a thread-local packing buffer that stops growing once the largest
  /// shape has been seen. Runs on the calling thread. Each C element is
  /// its stored value extended by (alpha * a_it) * b_tj, t ascending, one
  /// rounded multiply and one rounded add per term — the scalar chain
  /// tests/test_linalg.cpp's reference_gemm spells out — bit for bit
  /// across flavours, K-panel blocking, operand packing and the vector
  /// width (chosen from CPUID). The opt-in fast-math tier
  /// (DARL_FAST_MATH=1 / set_fast_math) swaps the strict micro-kernel for
  /// its AVX2+FMA instantiation: same term order, fused rounding — see
  /// DESIGN.md §16 for the divergence bound; campaigns force it off.
  static void gemm(double alpha, const Matrix& a, bool trans_a,
                   const Matrix& b, bool trans_b, Matrix& c);

  /// C = alpha * op(A) * op(B): gemm's overwrite mode, through the same
  /// shape checks and kernels. C's prior contents are never read — each chain
  /// starts from +0.0 in a register — so the result is bit for bit
  /// c.fill(0.0) followed by gemm(alpha, a, trans_a, b, trans_b, c),
  /// without the fill and the loads.
  static void gemm_overwrite(double alpha, const Matrix& a, bool trans_a,
                             const Matrix& b, bool trans_b, Matrix& c);

  /// Transposed copy.
  Matrix transposed() const;

  /// Fill with He/Kaiming-style scaled normal draws: N(0, gain/sqrt(cols)).
  /// Used for layer weight initialization.
  void randomize_kaiming(Rng& rng, double gain = 1.0);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vec data_;
};

/// Toggle the opt-in fast-math gemm tier at runtime. Takes effect only on
/// CPUs with AVX2+FMA (silently stays off otherwise). The process default
/// is DARL_FAST_MATH=1 in the environment; darl_study calls
/// set_fast_math(false) unconditionally so campaign arithmetic is always
/// the strict tier.
void set_fast_math(bool on);

/// Whether gemm is currently using the fused-multiply-add micro-kernel.
bool fast_math_active();

}  // namespace darl
