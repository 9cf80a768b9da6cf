// darl/nn/mlp.hpp
//
// Multi-layer perceptron with manual reverse-mode differentiation — the
// function approximator behind the PPO/SAC/IMPALA policies and value
// functions. Sized for RL workloads (observation dims ~10, hidden 64),
// double precision throughout.
//
// The primary interface is batched: forward_batch/backward_batch/
// evaluate_batch operate on observations-as-rows matrices through
// Matrix::gemm and reuse per-net workspace buffers (activations,
// pre-activations, deltas), so the steady-state hot loop performs zero
// heap allocations. The per-sample forward/backward/evaluate API is a thin
// batch-of-1 wrapper over the same kernels. Because gemm extends each
// output element by one ascending-t scalar chain whatever the batch size,
// batched and per-sample results are bitwise identical (see DESIGN.md
// §11).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "darl/linalg/matrix.hpp"

namespace darl::nn {

/// Hidden-layer activation functions.
enum class Activation { Tanh, ReLU };

/// What one Mlp::backward_batch pass computes: the parameter gradients,
/// the input gradient dL/dX, or both. Every mode gives the bits the full
/// pass would give for what it computes.
enum class Grad { Params, Input, Both };

/// The forward's one row pass per layer: z(r, c) = f(z(r, c) + bias[c])
/// for every row, where f is `act` on a hidden layer (ReLU as
/// v > 0.0 ? v : 0.0, tanh as std::tanh) and the identity on the output
/// layer (nullopt). Requires bias.size() == z.cols().
void bias_activation(Matrix& z, const Vec& bias, std::optional<Activation> act);

/// The ReLU derivative over n values: d[i] *= a[i] > 0.0 ? 1.0 : 0.0,
/// without a branch — the mask is a compare ANDed with the bits of 1.0,
/// then the same IEEE multiply. `a` holds the stored activations (relu(z)
/// > 0 exactly when z > 0).
void relu_mask(double* d, const double* a, std::size_t n);

/// A reference to one parameter buffer and its gradient accumulator.
/// Optimizers iterate these; the referenced storage is owned by the model.
struct ParamRef {
  Vec* value = nullptr;
  Vec* grad = nullptr;
  std::string name;
};

/// Fully connected network: input -> (Linear -> act)* -> Linear.
///
/// Batched usage: Y = forward_batch(X) with one observation per row; then
/// backward_batch(dL/dY) accumulates parameter gradients (call zero_grad()
/// between optimizer steps) and returns dL/dX; a Grad mode restricts it to
/// one of the two. forward_batch/backward_batch must be paired: backward
/// consumes the caches of the immediately preceding forward.
/// evaluate_batch never touches those caches.
///
/// Instances are NOT safe for concurrent calls — evaluate/evaluate_batch
/// included, since they write the instance's reusable workspace buffers.
/// Each rollout worker owns its own policy copy, so this costs nothing in
/// practice.
class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}, at least {in, out}. Weights use
  /// Kaiming-style init scaled for the activation; biases start at zero.
  Mlp(const std::vector<std::size_t>& sizes, Activation activation, Rng& rng);

  /// Evaluate one sample and cache intermediates for backward().
  /// Batch-of-1 wrapper over forward_batch.
  const Vec& forward(const Vec& x);

  /// Evaluate one sample without touching the backward caches.
  /// Batch-of-1 wrapper over evaluate_batch.
  Vec evaluate(const Vec& x) const;

  /// Back-propagate dL/dy from the last forward(); accumulates gradients
  /// into the parameter buffers and returns dL/dx.
  Vec backward(const Vec& grad_output);

  /// Batched forward over observations-as-rows X (batch x input_dim).
  /// Returns the (batch x output_dim) head matrix — a reference into the
  /// net's workspace, valid until the next forward/evaluate call — and
  /// caches intermediates for backward_batch.
  const Matrix& forward_batch(const Matrix& x);

  /// Batched inference (no backward caches touched). Returns a reference
  /// into the net's evaluation workspace, valid until the next
  /// evaluate/evaluate_batch call.
  const Matrix& evaluate_batch(const Matrix& x) const;

  /// Batched backward for the immediately preceding forward_batch.
  /// grad_output is (batch x output_dim); row i must hold dL/dy for row i
  /// of the forward input. Unless `want` is Grad::Input, accumulates
  /// parameter gradients exactly as the equivalent sequence of per-sample
  /// backward() calls would (same per-element accumulation order); Input
  /// leaves them untouched. Returns dL/dX (batch x input_dim), a workspace
  /// reference valid until the next backward call — or, for Grad::Params,
  /// which skips the layer-0 input-gradient product, an empty matrix.
  const Matrix& backward_batch(const Matrix& grad_output,
                               Grad want = Grad::Both);

  /// Zero every gradient accumulator.
  void zero_grad();

  /// All parameter buffers (weights then bias per layer, in order).
  std::vector<ParamRef> params();

  /// Total number of scalar parameters.
  std::size_t param_count() const;

  /// Flatten all parameters into one vector (serialization / checkpoints).
  Vec get_flat_params() const;

  /// Load parameters from a flat vector produced by get_flat_params().
  void set_flat_params(const Vec& flat);

  /// Floating-point operations of one forward pass (2*in*out per layer plus
  /// activations) — the unit of the simulated compute-cost model. A
  /// backward pass is charged at twice this.
  double flops_per_forward() const { return flops_fwd_; }

  std::size_t input_dim() const { return sizes_.front(); }
  std::size_t output_dim() const { return sizes_.back(); }
  const std::vector<std::size_t>& sizes() const { return sizes_; }
  Activation activation() const { return activation_; }

 private:
  /// Grow the forward workspaces (per-layer activations) to hold `batch`
  /// rows. Allocation happens here, outside the batch kernels, and only
  /// until the largest batch has been seen.
  void ensure_forward_ws(std::size_t batch);

  /// One backward step's row-order pass over delta: scale by the
  /// activation derivative when `act` (the layer's stored activation
  /// output) is given, then add each row into grad_b when it is given.
  /// The derivative is read off the stored output (for tanh, 1 - a^2 with
  /// a the stored tanh value — the same double the pre-activation
  /// recompute would give; for ReLU, relu_mask).
  void act_grad_and_bias_grad(Matrix& delta, const Matrix* act,
                              Vec* grad_b) const;

  std::vector<std::size_t> sizes_;
  Activation activation_;
  std::vector<Matrix> weights_;  // weights_[l] is (sizes_[l+1] x sizes_[l])
  std::vector<Vec> biases_;
  std::vector<Matrix> grad_w_;
  std::vector<Vec> grad_b_;
  double flops_fwd_ = 0.0;

  // Reusable batch workspaces. ws_act_[l] holds the input rows of layer l
  // (ws_act_.back() is the network output); hidden slots hold the
  // activation outputs the backward pass differentiates through. The
  // delta pair ping-pongs through backward_batch; the eval pair through
  // evaluate_batch (mutable: evaluate is logically const but reuses
  // instance-owned scratch). (The PR-4 transposed-weight cache is gone:
  // Matrix::gemm now packs the NT operand internally when the batch is
  // large enough to pay for it.)
  std::vector<Matrix> ws_act_;
  Matrix ws_delta_a_, ws_delta_b_;
  mutable Matrix ws_eval_a_, ws_eval_b_;
  // Batch-of-1 staging rows for the per-sample wrappers.
  Matrix ws_x1_, ws_g1_;
  mutable Matrix ws_eval_x1_;
  Vec output_;
  std::size_t forward_rows_ = 0;  ///< rows of the pending forward (0 = none)
};

}  // namespace darl::nn
