// Batched-vs-per-sample bitwise equivalence for the Mlp batch kernels.
// The batched path (forward_batch / backward_batch / evaluate_batch) is
// required to reproduce the per-sample API bit for bit — campaign results
// and the determinism audit depend on it — so every comparison here is
// exact (==), not approximate.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"

namespace darl::nn {
namespace {

const std::vector<std::vector<std::size_t>> kShapes = {
    {4, 8, 3},          // one hidden layer
    {5, 16, 16, 2},     // two hidden layers
    {6, 1},             // linear, no hidden layer
    {3, 32, 32, 32, 4}, // deeper stack
};

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal(0.0, 1.0);
  return m;
}

Vec matrix_row(const Matrix& m, std::size_t r) {
  return Vec(m.row(r), m.row(r) + m.cols());
}

void expect_bitwise(const Vec& a, const Vec& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

/// Bit-pattern equality: NaN against NaN of the same payload passes, and
/// -0.0 against +0.0 fails.
void expect_bits(const double* a, const double* b, std::size_t n,
                 const std::string& what) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << what << " element " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_grads_bitwise(Mlp& a, Mlp& b, const std::string& what) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    expect_bitwise(*pa[i].grad, *pb[i].grad, what + " grad " + pa[i].name);
  }
}

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<Activation, std::size_t>> {
 protected:
  Activation activation() const { return std::get<0>(GetParam()); }
  std::size_t batch() const { return std::get<1>(GetParam()); }
};

TEST_P(BatchEquivalence, ForwardBatchMatchesPerSample) {
  for (const auto& sizes : kShapes) {
    Rng init(7);
    Mlp per_sample(sizes, activation(), init);
    Mlp batched = per_sample;

    Rng data(11);
    const Matrix x = random_matrix(batch(), sizes.front(), data);
    const Matrix& y = batched.forward_batch(x);
    ASSERT_EQ(y.rows(), batch());
    ASSERT_EQ(y.cols(), sizes.back());

    for (std::size_t r = 0; r < batch(); ++r) {
      const Vec yr = per_sample.forward(matrix_row(x, r));
      expect_bitwise(matrix_row(y, r), yr, "forward row");
    }
  }
}

TEST_P(BatchEquivalence, EvaluateBatchMatchesPerSample) {
  for (const auto& sizes : kShapes) {
    Rng init(7);
    const Mlp net(sizes, activation(), init);
    Mlp batched = net;

    Rng data(13);
    const Matrix x = random_matrix(batch(), sizes.front(), data);
    const Matrix& y = batched.evaluate_batch(x);
    for (std::size_t r = 0; r < batch(); ++r) {
      expect_bitwise(matrix_row(y, r), net.evaluate(matrix_row(x, r)),
                     "evaluate row");
    }
  }
}

TEST_P(BatchEquivalence, BackwardBatchMatchesPerSampleSequence) {
  for (const auto& sizes : kShapes) {
    Rng init(7);
    Mlp per_sample(sizes, activation(), init);
    Mlp batched = per_sample;

    Rng data(17);
    const Matrix x = random_matrix(batch(), sizes.front(), data);
    const Matrix g = random_matrix(batch(), sizes.back(), data);

    // Sequence of per-sample forward/backward pairs, accumulating grads.
    per_sample.zero_grad();
    std::vector<Vec> dx_per(batch());
    for (std::size_t r = 0; r < batch(); ++r) {
      per_sample.forward(matrix_row(x, r));
      dx_per[r] = per_sample.backward(matrix_row(g, r));
    }

    batched.zero_grad();
    batched.forward_batch(x);
    const Matrix& dx = batched.backward_batch(g);
    ASSERT_EQ(dx.rows(), batch());
    ASSERT_EQ(dx.cols(), sizes.front());

    expect_grads_bitwise(per_sample, batched, "backward");
    for (std::size_t r = 0; r < batch(); ++r) {
      expect_bitwise(matrix_row(dx, r), dx_per[r], "dX row");
    }
  }
}

TEST_P(BatchEquivalence, GradientsAccumulateAcrossBatches) {
  // A second minibatch without zero_grad must add onto the existing
  // gradients exactly like continued per-sample calls (gemm seeds each
  // element from the current value rather than overwriting).
  for (const auto& sizes : kShapes) {
    Rng init(7);
    Mlp per_sample(sizes, activation(), init);
    Mlp batched = per_sample;

    Rng data(19);
    per_sample.zero_grad();
    batched.zero_grad();
    for (int round = 0; round < 3; ++round) {
      const Matrix x = random_matrix(batch(), sizes.front(), data);
      const Matrix g = random_matrix(batch(), sizes.back(), data);
      for (std::size_t r = 0; r < batch(); ++r) {
        per_sample.forward(matrix_row(x, r));
        per_sample.backward(matrix_row(g, r));
      }
      batched.forward_batch(x);
      batched.backward_batch(g);
    }
    expect_grads_bitwise(per_sample, batched, "accumulated");
  }
}

// Grad::Params gives the full pass's parameter-gradient bits and skips
// the input gradient; Grad::Input gives its dX bits and leaves the
// gradients as they were.
TEST_P(BatchEquivalence, BackwardModesMatchTheFullPass) {
  for (const auto& sizes : kShapes) {
    Rng init(7);
    Mlp full(sizes, activation(), init);
    Mlp params_only = full;
    Mlp input_only = full;

    Rng data(23);
    const Matrix x = random_matrix(batch(), sizes.front(), data);
    const Matrix g = random_matrix(batch(), sizes.back(), data);
    full.zero_grad();
    full.forward_batch(x);
    const Matrix dx = full.backward_batch(g);

    params_only.zero_grad();
    params_only.forward_batch(x);
    EXPECT_TRUE(params_only.backward_batch(g, Grad::Params).empty());
    expect_grads_bitwise(full, params_only, "Grad::Params");

    // Gradients left over from an earlier pass must survive Grad::Input.
    input_only.forward_batch(x);
    input_only.backward_batch(g);
    const std::vector<Vec> before = [&] {
      std::vector<Vec> out;
      for (const ParamRef& p : input_only.params()) out.push_back(*p.grad);
      return out;
    }();
    input_only.forward_batch(x);
    const Matrix& dx_in = input_only.backward_batch(g, Grad::Input);
    ASSERT_EQ(dx_in.rows(), dx.rows());
    ASSERT_EQ(dx_in.cols(), dx.cols());
    expect_bits(dx_in.data().data(), dx.data().data(), dx.size(),
                "Grad::Input dX");
    const auto after = input_only.params();
    for (std::size_t i = 0; i < after.size(); ++i) {
      expect_bits(after[i].grad->data(), before[i].data(), before[i].size(),
                  "Grad::Input left grad " + after[i].name);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ActivationsAndBatchSizes, BatchEquivalence,
    ::testing::Combine(::testing::Values(Activation::Tanh, Activation::ReLU),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64})));

// Full PPO-style minibatch step: minibatch epochs over a sample pool with
// gradient clipping and Adam updates. Parameters after several optimizer
// steps must be bitwise identical between the per-sample and batched
// execution of the same schedule.
TEST(PpoMinibatchStep, BatchedStepMatchesPerSampleStep) {
  const std::vector<std::size_t> sizes = {4, 32, 32, 3};
  Rng init(23);
  Mlp per_sample(sizes, Activation::Tanh, init);
  Mlp batched = per_sample;
  Adam opt_a(per_sample.params(), 3e-4);
  Adam opt_b(batched.params(), 3e-4);

  const std::size_t pool = 96;
  const std::size_t minibatch = 32;
  Rng data(29);
  const Matrix all_x = random_matrix(pool, sizes.front(), data);
  const Matrix all_g = random_matrix(pool, sizes.back(), data);

  Rng perm_a(31), perm_b(31);
  Matrix mb_x, mb_g;
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    const auto pa = perm_a.permutation(pool);
    const auto pb = perm_b.permutation(pool);
    ASSERT_EQ(pa, pb);
    for (std::size_t start = 0; start < pool; start += minibatch) {
      // Per-sample branch.
      per_sample.zero_grad();
      for (std::size_t k = 0; k < minibatch; ++k) {
        per_sample.forward(matrix_row(all_x, pa[start + k]));
        per_sample.backward(matrix_row(all_g, pa[start + k]));
      }
      clip_grad_norm(per_sample.params(), 0.5);
      opt_a.step();

      // Batched branch: same samples in the same order.
      batched.zero_grad();
      mb_x.reshape(minibatch, sizes.front());
      mb_g.reshape(minibatch, sizes.back());
      for (std::size_t k = 0; k < minibatch; ++k) {
        const Vec xr = matrix_row(all_x, pb[start + k]);
        const Vec gr = matrix_row(all_g, pb[start + k]);
        std::copy(xr.begin(), xr.end(), mb_x.row(k));
        std::copy(gr.begin(), gr.end(), mb_g.row(k));
      }
      batched.forward_batch(mb_x);
      batched.backward_batch(mb_g);
      clip_grad_norm(batched.params(), 0.5);
      opt_b.step();
    }
  }
  expect_bitwise(per_sample.get_flat_params(), batched.get_flat_params(),
                 "post-step params");
}

// ---------------------------------------------------------------------------
// The row kernels around the GEMM, against the scalar code they replaced.

/// The deleted linalg passes the forward used to run after its GEMM,
/// kept as references: m(r, c) += bias[c], then the activation in place.
void reference_add_bias(Matrix& m, const Vec& bias) {
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) += bias[c];
}
void reference_apply_tanh(Matrix& m) {
  for (double& v : m.data()) v = math::tanh(v);
}
void reference_apply_relu(Matrix& m) {
  for (double& v : m.data()) v = v > 0.0 ? v : 0.0;
}

/// Values where IEEE corner cases live: signed zeros, NaN, infinities,
/// subnormals, and the normal range on both sides.
std::vector<double> special_values() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  return {0.0, -0.0, nan, -nan, inf, -inf, sub, -sub, 1e-310, -1e-310,
          0.5, -0.5, 3.0, -3.0, 1e300, -1e300, 2.5e-320};
}

TEST(RowKernels, BiasActivationMatchesAddBiasThenActivation) {
  const std::vector<double> special = special_values();
  Rng rng(37);
  // 19 columns: four-wide vector bodies plus a tail, whatever the width.
  const std::size_t rows = 7, cols = 19;
  Matrix z(rows, cols);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z.data()[i] = i % 3 == 0 ? special[i % special.size()] : rng.normal(0.0, 2.0);
  }
  Vec bias(cols);
  for (std::size_t c = 0; c < cols; ++c) bias[c] = c % 4 == 0 ? -0.0 : rng.normal(0.0, 1.0);

  for (const int mode : {0, 1, 2}) {  // output layer, ReLU, tanh
    Matrix expected = z;
    reference_add_bias(expected, bias);
    Matrix got = z;
    if (mode == 0) {
      bias_activation(got, bias, std::nullopt);
    } else if (mode == 1) {
      reference_apply_relu(expected);
      bias_activation(got, bias, Activation::ReLU);
    } else {
      reference_apply_tanh(expected);
      bias_activation(got, bias, Activation::Tanh);
    }
    expect_bits(got.data().data(), expected.data().data(), got.size(),
                "bias_activation mode " + std::to_string(mode));
  }
  Matrix narrow(2, cols - 1);
  EXPECT_THROW(bias_activation(narrow, bias, Activation::ReLU), InvalidArgument);
}

TEST(RowKernels, ReluMaskMatchesTheScalarTernary) {
  const std::vector<double> special = special_values();
  Rng rng(41);
  // Every length from empty to past two vector bodies, so each lane
  // position and every tail length sees every special activation.
  for (std::size_t n = 0; n <= 11; ++n) {
    for (std::size_t shift = 0; shift < special.size(); ++shift) {
      std::vector<double> a(n), d(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = special[(i + shift) % special.size()];
        // The upstream gradient takes specials too: inf * 0 is NaN and
        // -x * 0 is -0.0, which a mask that skipped the multiply would miss.
        d[i] = (i + shift) % 4 == 0 ? special[(3 * i + shift) % special.size()]
                                    : rng.normal(0.0, 1.0);
      }
      std::vector<double> expected = d;
      for (std::size_t i = 0; i < n; ++i) expected[i] *= a[i] > 0.0 ? 1.0 : 0.0;
      relu_mask(d.data(), a.data(), n);
      expect_bits(d.data(), expected.data(), n,
                  "relu_mask n=" + std::to_string(n) + " shift=" + std::to_string(shift));
    }
  }
}

// Adam::step runs vectorised; IEEE division and square root are correctly
// rounded at every width, so it must equal the scalar loop bit for bit —
// on zero, subnormal and huge gradients too (g * g overflows to inf for
// the largest, and the update then rounds to zero).
TEST(RowKernels, AdamStepMatchesTheScalarLoop) {
  const double lr = 3e-4, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  const std::vector<double> special = {0.0, -0.0, 4.9e-324, -1e-310, 1e-300,
                                       1e154, -1e154, 1e200, -1e300, 1e308};
  Rng rng(43);
  // Buffer lengths spanning a vector body and every tail.
  const std::vector<std::size_t> lengths = {1, 3, 4, 5, 8, 13, 69};
  // Weights on the scale of one update, so that an update one ulp off
  // moves the weight's bits instead of rounding away.
  std::vector<Vec> w(lengths.size()), g(lengths.size());
  for (std::size_t b = 0; b < lengths.size(); ++b) {
    w[b].resize(lengths[b]);
    g[b].resize(lengths[b]);
    for (double& v : w[b]) v = rng.normal(0.0, 1e-3);
  }
  std::vector<Vec> ref_w = w, ref_m, ref_v;
  for (const Vec& x : w) {
    ref_m.emplace_back(x.size(), 0.0);
    ref_v.emplace_back(x.size(), 0.0);
  }
  std::vector<ParamRef> refs;
  for (std::size_t b = 0; b < w.size(); ++b) refs.push_back({&w[b], &g[b], "p"});
  Adam opt(refs, lr, b1, b2, eps);

  for (std::size_t t = 1; t <= 5; ++t) {
    for (std::size_t b = 0; b < g.size(); ++b) {
      for (std::size_t j = 0; j < g[b].size(); ++j) {
        g[b][j] = (j + t) % 3 == 0 ? special[(j + b + t) % special.size()]
                                   : rng.normal(0.0, 1.0);
      }
    }
    opt.step();
    const double bc1 = 1.0 - math::pow(b1, static_cast<double>(t));
    const double bc2 = 1.0 - math::pow(b2, static_cast<double>(t));
    for (std::size_t b = 0; b < g.size(); ++b) {
      for (std::size_t j = 0; j < g[b].size(); ++j) {
        ref_m[b][j] = b1 * ref_m[b][j] + (1.0 - b1) * g[b][j];
        ref_v[b][j] = b2 * ref_v[b][j] + (1.0 - b2) * g[b][j] * g[b][j];
        const double mhat = ref_m[b][j] / bc1;
        const double vhat = ref_v[b][j] / bc2;
        ref_w[b][j] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
      expect_bits(w[b].data(), ref_w[b].data(), w[b].size(),
                  "step " + std::to_string(t) + " buffer " + std::to_string(b));
    }
  }
}

TEST(BatchApi, BackwardWithoutForwardThrows) {
  Rng init(3);
  Mlp net({3, 4, 2}, Activation::Tanh, init);
  Matrix g(5, 2, 0.0);
  EXPECT_ANY_THROW(net.backward_batch(g));
  // Shape mismatch against the pending forward is also rejected.
  Matrix x(4, 3, 0.1);
  net.forward_batch(x);
  EXPECT_ANY_THROW(net.backward_batch(g));
}

TEST(BatchApi, SteadyStateReusesWorkspaces) {
  // After the first call at a given batch size, repeated batch passes must
  // return the same workspace storage (no reallocation of the result).
  Rng init(5);
  Mlp net({4, 16, 2}, Activation::ReLU, init);
  Matrix x(8, 4, 0.25);
  const Matrix& y1 = net.forward_batch(x);
  const double* p1 = y1.row(0);
  net.backward_batch(Matrix(8, 2, 1.0));
  const Matrix& y2 = net.forward_batch(x);
  EXPECT_EQ(p1, y2.row(0));
}

}  // namespace
}  // namespace darl::nn
