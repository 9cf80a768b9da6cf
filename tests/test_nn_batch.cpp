// Batched-vs-per-sample bitwise equivalence for the Mlp batch kernels.
// The batched path (forward_batch / backward_batch / evaluate_batch) is
// required to reproduce the per-sample API bit for bit — campaign results
// and the determinism audit depend on it — so every comparison here is
// exact (==), not approximate.

#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

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
