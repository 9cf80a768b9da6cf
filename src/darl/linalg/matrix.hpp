// darl/linalg/matrix.hpp
//
// Dense row-major matrix with the BLAS-2/3-lite kernels the neural-network
// substrate needs: matrix-vector products, rank-1 updates, and a batched
// GEMM that the nn::Mlp batch path is built on. The GEMM accumulates each
// output element over the contraction index in ascending order with a
// scalar accumulator — exactly the summation order of matvec/matvec_t/
// add_outer — so batched and per-sample results are bitwise identical.

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

  /// y = A * x. Requires x.size() == cols(); returns a rows()-vector.
  Vec matvec(const Vec& x) const;

  /// y = A^T * x. Requires x.size() == rows(); returns a cols()-vector.
  Vec matvec_t(const Vec& x) const;

  /// A += alpha * u * v^T. Requires u.size() == rows(), v.size() == cols().
  void add_outer(double alpha, const Vec& u, const Vec& v);

  /// this += alpha * other (same shape).
  void add_scaled(double alpha, const Matrix& other);

  /// C += alpha * op(A) * op(B), where op is the identity or the transpose.
  /// C must be pre-shaped to op(A).rows x op(B).cols; the only heap scratch
  /// is a thread-local packing buffer that stops growing once the largest
  /// shape has been seen. Each C element accumulates over the contraction
  /// index in ascending order (seeded from the existing C value), matching
  /// the matvec / matvec_t / add_outer summation order bit for bit —
  /// across flavours, K-panel blocking, operand packing, the vector width
  /// (chosen from CPUID), AND the thread count: large products are
  /// row-partitioned over the persistent
  /// linalg::ThreadPool (width from DARL_LINALG_THREADS, default 1) with
  /// fixed disjoint row ownership per worker, so results are bitwise
  /// identical at any width. Products below a volume threshold stay on the
  /// calling thread (batch-1 latency). The opt-in fast-math tier
  /// (DARL_FAST_MATH=1 / set_fast_math) swaps the strict micro-kernel for
  /// its AVX2+FMA instantiation: same term order, fused rounding — see
  /// DESIGN.md §16 for the divergence bound; campaigns force it off.
  static void gemm(double alpha, const Matrix& a, bool trans_a,
                   const Matrix& b, bool trans_b, Matrix& c);

  /// C = A * B (shapes must be compatible). Routed through gemm.
  static Matrix multiply(const Matrix& a, const Matrix& b);

  /// Transposed copy.
  Matrix transposed() const;

  /// Transpose into a caller-owned workspace (reshaped to cols x rows, no
  /// allocation once the workspace has its capacity). Lets hot paths trade
  /// a strided gemm operand for a one-off transposed copy.
  void transpose_into(Matrix& out) const;

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

/// m(r, c) += bias[c] for every row r. Requires bias.size() == m.cols().
/// Identical per row to axpy(1.0, bias, z) on a matvec result.
void add_bias(Matrix& m, const Vec& bias);

/// Element-wise tanh / rectifier over the whole matrix, in place. Same
/// scalar functions the per-sample MLP activation path applies.
void apply_tanh(Matrix& m);
void apply_relu(Matrix& m);

}  // namespace darl
