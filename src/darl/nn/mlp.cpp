#include "darl/nn/mlp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/kernel.hpp"
#include "darl/common/rng.hpp"
#include "darl/obs/metrics.hpp"

namespace darl::nn {

namespace {

// Bucket bounds for the batch-size histogram: powers of two up to the
// largest minibatch any of the algorithms uses, plus an overflow bucket.
obs::Histogram& batch_rows_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "nn.batch_rows", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
  return h;
}

DARL_KERNEL void record_batch(std::size_t rows, double flops) {
  if (!obs::metrics_enabled()) return;
  batch_rows_histogram().observe(static_cast<double>(rows));
  DARL_GAUGE_ADD("nn.batched_flops", flops);
}

/// tanh'(z) from the stored a = tanh(z): d[i] *= 1 - a[i]^2.
DARL_KERNEL [[gnu::always_inline]] inline void tanh_grad(
    double* __restrict d, const double* __restrict a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] *= 1.0 - a[i] * a[i];
}

}  // namespace

DARL_KERNEL void bias_activation(Matrix& z, const Vec& bias,
                                 std::optional<Activation> act) {
  DARL_CHECK(bias.size() == z.cols(),
             "bias has " << bias.size() << " values, rows have " << z.cols());
  const std::size_t cols = z.cols();
  const double* __restrict b = bias.data();
  const bool relu = act && *act == Activation::ReLU;
  for (std::size_t r = 0; r < z.rows(); ++r) {
    double* __restrict row = z.row(r);
    if (relu) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double v = row[c] + b[c];
        row[c] = v > 0.0 ? v : 0.0;
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) row[c] += b[c];
    }
  }
  // tanh then runs over the whole block in one branch-free pass, 4 or 8
  // lanes wide, each lane the scalar math::tanh's bits.
  if (act && *act == Activation::Tanh) math::tanh_row(z.row(0), z.rows() * cols);
}

DARL_KERNEL void relu_mask(double* __restrict d, const double* __restrict a,
                           std::size_t n) {
  // A lane of a vector compare is all ones where a > 0.0 (false for NaN,
  // as in the scalar ternary) and all zeros elsewhere; ANDed with the bits
  // of 1.0 it is exactly the ternary's 1.0 or +0.0. Four lanes are one AVX
  // register, or two SSE2 ones without -mavx; the tail does the same with
  // a scalar compare.
  typedef double v4 __attribute__((vector_size(4 * sizeof(double))));
  typedef std::int64_t m4 __attribute__((vector_size(4 * sizeof(double))));
  const v4 zero = {};
  const m4 one = __builtin_bit_cast(m4, v4{1.0, 1.0, 1.0, 1.0});
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4 av, dv;
    __builtin_memcpy(&av, a + i, sizeof av);
    __builtin_memcpy(&dv, d + i, sizeof dv);
    dv *= __builtin_bit_cast(v4, (av > zero) & one);
    __builtin_memcpy(d + i, &dv, sizeof dv);
  }
  for (; i < n; ++i) {
    const std::uint64_t keep = -static_cast<std::uint64_t>(a[i] > 0.0);
    d[i] *= std::bit_cast<double>(keep & std::bit_cast<std::uint64_t>(1.0));
  }
}

Mlp::Mlp(const std::vector<std::size_t>& sizes, Activation activation, Rng& rng)
    : sizes_(sizes), activation_(activation) {
  DARL_CHECK(sizes_.size() >= 2, "Mlp needs at least input and output sizes");
  for (std::size_t s : sizes_) DARL_CHECK(s > 0, "Mlp layer size must be positive");

  const std::size_t layers = sizes_.size() - 1;
  // tanh keeps unit variance with gain 1; ReLU needs sqrt(2).
  const double gain = activation_ == Activation::ReLU ? std::sqrt(2.0) : 1.0;
  weights_.reserve(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    Matrix w(sizes_[l + 1], sizes_[l]);
    w.randomize_kaiming(rng, gain);
    weights_.push_back(std::move(w));
    biases_.emplace_back(sizes_[l + 1], 0.0);
    grad_w_.emplace_back(sizes_[l + 1], sizes_[l], 0.0);
    grad_b_.emplace_back(sizes_[l + 1], 0.0);
  }
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    flops_fwd_ += 2.0 * static_cast<double>(sizes_[l]) * static_cast<double>(sizes_[l + 1]);
    flops_fwd_ += static_cast<double>(sizes_[l + 1]);  // bias + activation
  }
  ws_act_.resize(layers + 1);
}

void Mlp::ensure_forward_ws(std::size_t batch) {
  const std::size_t layers = weights_.size();
  for (std::size_t l = 0; l <= layers; ++l) ws_act_[l].reshape(batch, sizes_[l]);
}

DARL_KERNEL void Mlp::act_grad_and_bias_grad(Matrix& delta, const Matrix* act,
                                             Vec* grad_b) const {
  // One row-order pass: each element first becomes dL/dz, then lands in
  // grad_b, so grad_b[c] sums the rows in ascending order as before.
  const std::size_t rows = delta.rows();
  const std::size_t cols = delta.cols();
  double* __restrict gb = grad_b != nullptr ? grad_b->data() : nullptr;
  for (std::size_t r = 0; r < rows; ++r) {
    double* __restrict d = delta.row(r);
    if (act != nullptr) {
      if (activation_ == Activation::ReLU) {
        relu_mask(d, act->row(r), cols);
      } else {
        tanh_grad(d, act->row(r), cols);
      }
    }
    if (gb != nullptr) {
      for (std::size_t c = 0; c < cols; ++c) gb[c] += d[c];
    }
  }
}

DARL_KERNEL const Matrix& Mlp::forward_batch(const Matrix& x) {
  DARL_CHECK(x.cols() == input_dim(),
             "Mlp input has " << x.cols() << " dims, expected " << input_dim());
  const std::size_t batch = x.rows();
  const std::size_t layers = weights_.size();
  ensure_forward_ws(batch);
  record_batch(batch, flops_fwd_ * static_cast<double>(batch));
  std::copy(x.data().begin(), x.data().end(), ws_act_[0].data().begin());
  for (std::size_t l = 0; l < layers; ++l) {
    Matrix& z = ws_act_[l + 1];
    // Z = X * W^T straight through the NT flavour, each chain started from
    // +0.0 in a register; gemm packs the weight operand internally once the
    // batch clears its threshold, with the same per-element summation order
    // at every batch size.
    Matrix::gemm_overwrite(1.0, ws_act_[l], false, weights_[l], true, z);
    bias_activation(z, biases_[l],
                    l + 1 < layers ? std::optional(activation_) : std::nullopt);
  }
  forward_rows_ = batch;
  return ws_act_[layers];
}

DARL_KERNEL const Matrix& Mlp::evaluate_batch(const Matrix& x) const {
  DARL_CHECK(x.cols() == input_dim(),
             "Mlp input has " << x.cols() << " dims, expected " << input_dim());
  const std::size_t batch = x.rows();
  const std::size_t layers = weights_.size();
  record_batch(batch, flops_fwd_ * static_cast<double>(batch));
  const Matrix* a = &x;
  Matrix* z = &ws_eval_a_;
  Matrix* spare = &ws_eval_b_;
  for (std::size_t l = 0; l < layers; ++l) {
    z->reshape(batch, sizes_[l + 1]);
    Matrix::gemm_overwrite(1.0, *a, false, weights_[l], true, *z);
    bias_activation(*z, biases_[l],
                    l + 1 < layers ? std::optional(activation_) : std::nullopt);
    a = z;
    std::swap(z, spare);
  }
  return *a;
}

DARL_KERNEL const Matrix& Mlp::backward_batch(const Matrix& grad_output,
                                              Grad want) {
  static const Matrix kNoInputGrad;
  DARL_CHECK(forward_rows_ > 0, "backward_batch() without a preceding forward_batch()");
  DARL_CHECK(grad_output.rows() == forward_rows_ && grad_output.cols() == output_dim(),
             "grad_output is " << grad_output.rows() << "x" << grad_output.cols()
                               << ", expected " << forward_rows_ << "x"
                               << output_dim());
  const std::size_t batch = forward_rows_;
  const std::size_t layers = weights_.size();
  const bool params = want != Grad::Input;
  const bool input = want != Grad::Params;
  // The full pass costs twice a forward; Params skips the layer-0 dX
  // product and Input every dW product.
  const double first_layer = 2.0 * static_cast<double>(sizes_[0] * sizes_[1]);
  const double flops = want == Grad::Both     ? 2.0 * flops_fwd_
                       : want == Grad::Params ? 2.0 * flops_fwd_ - first_layer
                                              : flops_fwd_;
  record_batch(batch, flops * static_cast<double>(batch));
  Matrix* delta = &ws_delta_a_;  // dL/dz rows for the current layer
  Matrix* spare = &ws_delta_b_;
  delta->reshape(batch, output_dim());
  std::copy(grad_output.data().begin(), grad_output.data().end(),
            delta->data().begin());
  for (std::size_t li = layers; li-- > 0;) {
    // For a hidden layer delta holds dL/da of its activation output: one
    // pass converts it to dL/dz through the activation derivative (read
    // off the stored activation rows) and, when the parameter gradients
    // are wanted, adds it into the bias gradient.
    act_grad_and_bias_grad(*delta, li + 1 < layers ? &ws_act_[li + 1] : nullptr,
                           params ? &grad_b_[li] : nullptr);
    // grad_w += delta^T * activations: element (r, c) accumulates over
    // samples in ascending order, exactly like one backward per sample.
    if (params) Matrix::gemm(1.0, *delta, true, ws_act_[li], false, grad_w_[li]);
    if (li == 0 && !input) break;
    spare->reshape(batch, sizes_[li]);
    Matrix::gemm_overwrite(1.0, *delta, false, weights_[li], false, *spare);
    std::swap(delta, spare);
  }
  forward_rows_ = 0;
  return input ? *delta : kNoInputGrad;  // dL/dX
}

const Vec& Mlp::forward(const Vec& x) {
  DARL_CHECK(x.size() == input_dim(),
             "Mlp input has " << x.size() << " dims, expected " << input_dim());
  ws_x1_.reshape(1, input_dim());
  std::copy(x.begin(), x.end(), ws_x1_.data().begin());
  const Matrix& y = forward_batch(ws_x1_);
  output_.assign(y.row(0), y.row(0) + output_dim());
  return output_;
}

Vec Mlp::evaluate(const Vec& x) const {
  DARL_CHECK(x.size() == input_dim(),
             "Mlp input has " << x.size() << " dims, expected " << input_dim());
  ws_eval_x1_.reshape(1, input_dim());
  std::copy(x.begin(), x.end(), ws_eval_x1_.data().begin());
  const Matrix& y = evaluate_batch(ws_eval_x1_);
  return Vec(y.row(0), y.row(0) + output_dim());
}

Vec Mlp::backward(const Vec& grad_output) {
  DARL_CHECK(forward_rows_ == 1, "backward() without a preceding forward()");
  DARL_CHECK(grad_output.size() == output_dim(),
             "grad_output has " << grad_output.size() << " dims, expected "
                                << output_dim());
  ws_g1_.reshape(1, output_dim());
  std::copy(grad_output.begin(), grad_output.end(), ws_g1_.data().begin());
  const Matrix& dx = backward_batch(ws_g1_);
  return Vec(dx.row(0), dx.row(0) + input_dim());
}

void Mlp::zero_grad() {
  for (auto& g : grad_w_) g.fill(0.0);
  for (auto& g : grad_b_) std::fill(g.begin(), g.end(), 0.0);
}

std::vector<ParamRef> Mlp::params() {
  std::vector<ParamRef> out;
  out.reserve(2 * weights_.size());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    // Built via += (not literal + temporary) to dodge a GCC-12 -Wrestrict
    // false positive in the inlined string concatenation.
    std::string wname = "w";
    wname += std::to_string(l);
    std::string bname = "b";
    bname += std::to_string(l);
    out.push_back(
        ParamRef{&weights_[l].data(), &grad_w_[l].data(), std::move(wname)});
    out.push_back(ParamRef{&biases_[l], &grad_b_[l], std::move(bname)});
  }
  return out;
}

std::size_t Mlp::param_count() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l)
    n += weights_[l].size() + biases_[l].size();
  return n;
}

Vec Mlp::get_flat_params() const {
  Vec flat;
  flat.reserve(param_count());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const Vec& w = weights_[l].data();
    flat.insert(flat.end(), w.begin(), w.end());
    flat.insert(flat.end(), biases_[l].begin(), biases_[l].end());
  }
  return flat;
}

void Mlp::set_flat_params(const Vec& flat) {
  DARL_CHECK(flat.size() == param_count(),
             "flat parameter vector has " << flat.size() << " values, expected "
                                          << param_count());
  std::size_t off = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Vec& w = weights_[l].data();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + w.size()), w.begin());
    off += w.size();
    Vec& b = biases_[l];
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + b.size()), b.begin());
    off += b.size();
  }
}

}  // namespace darl::nn
