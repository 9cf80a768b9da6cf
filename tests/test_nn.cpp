// Tests for the neural-network substrate. The centerpiece is finite-
// difference gradient checking of the MLP backward pass and of every
// distribution gradient formula — the correctness foundation under PPO/SAC.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numbers>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stats.hpp"
#include "darl/nn/distributions.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"

namespace darl::nn {
namespace {

// Numerical gradient of f at x via central differences.
double num_grad(const std::function<double(double)>& f, double x,
                double eps = 1e-6) {
  return (f(x + eps) - f(x - eps)) / (2.0 * eps);
}

class MlpGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradCheck, BackwardMatchesFiniteDifferences) {
  Rng rng(1);
  Mlp net({3, 8, 5, 2}, GetParam(), rng);
  const Vec x{0.3, -0.7, 1.1};
  const Vec gout{1.0, -2.0};  // L = y0 - 2 y1

  net.zero_grad();
  net.forward(x);
  const Vec gin = net.backward(gout);

  auto loss_at = [&](Vec flat) {
    Mlp copy = net;
    copy.set_flat_params(flat);
    const Vec y = copy.evaluate(x);
    return y[0] * gout[0] + y[1] * gout[1];
  };

  const Vec flat = net.get_flat_params();
  // Collect analytic grads in flat order (w0, b0, w1, b1, ...).
  Vec analytic;
  for (const auto& p : net.params()) {
    analytic.insert(analytic.end(), p.grad->begin(), p.grad->end());
  }
  ASSERT_EQ(analytic.size(), flat.size());

  // Spot-check a spread of parameters (full sweep is slow in Debug).
  Rng pick(2);
  for (int k = 0; k < 60; ++k) {
    const std::size_t i = pick.index(flat.size());
    const double g = num_grad(
        [&](double v) {
          Vec f2 = flat;
          f2[i] = v;
          return loss_at(f2);
        },
        flat[i]);
    EXPECT_NEAR(analytic[i], g, 1e-5 * std::max(1.0, std::abs(g)))
        << "param index " << i;
  }

  // Input gradient too.
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double g = num_grad(
        [&](double v) {
          Vec x2 = x;
          x2[i] = v;
          const Vec y = net.evaluate(x2);
          return y[0] * gout[0] + y[1] * gout[1];
        },
        x[i]);
    EXPECT_NEAR(gin[i], g, 1e-5 * std::max(1.0, std::abs(g)));
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradCheck,
                         ::testing::Values(Activation::Tanh, Activation::ReLU),
                         [](const auto& gen_info) {
                           return gen_info.param == Activation::Tanh ? "Tanh"
                                                                 : "ReLU";
                         });

TEST(Mlp, ForwardMatchesManualTinyNet) {
  Rng rng(3);
  Mlp net({2, 2, 1}, Activation::Tanh, rng);
  // Set known parameters: y = w2 * tanh(W1 x + b1) + b2.
  net.set_flat_params({1.0, 0.0, 0.0, 1.0,  // W1 (2x2 row-major)
                       0.1, -0.1,            // b1
                       2.0, -1.0,            // W2 (1x2)
                       0.5});                // b2
  const Vec y = net.evaluate({0.2, 0.4});
  const double h0 = std::tanh(0.2 + 0.1);
  const double h1 = std::tanh(0.4 - 0.1);
  EXPECT_NEAR(y[0], 2.0 * h0 - 1.0 * h1 + 0.5, 1e-12);
}

TEST(Mlp, EvaluateEqualsForward) {
  Rng rng(4);
  Mlp net({4, 16, 3}, Activation::Tanh, rng);
  const Vec x{0.1, 0.2, -0.3, 0.4};
  const Vec a = net.evaluate(x);
  const Vec b = net.forward(x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Mlp, FlatParamsRoundTrip) {
  Rng rng(5);
  Mlp a({3, 7, 2}, Activation::ReLU, rng);
  Mlp b({3, 7, 2}, Activation::ReLU, rng);
  b.set_flat_params(a.get_flat_params());
  const Vec x{1.0, -1.0, 0.5};
  const Vec ya = a.evaluate(x), yb = b.evaluate(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  EXPECT_EQ(a.param_count(), 3u * 7u + 7u + 7u * 2u + 2u);
  EXPECT_THROW(b.set_flat_params(Vec{1.0}), InvalidArgument);
}

TEST(Mlp, BackwardWithoutForwardThrows) {
  Rng rng(6);
  Mlp net({2, 2}, Activation::Tanh, rng);
  EXPECT_THROW(net.backward({1.0, 1.0}), Error);
}

TEST(Mlp, FlopsPositiveAndMonotonic) {
  Rng rng(7);
  Mlp small({4, 8, 2}, Activation::Tanh, rng);
  Mlp big({4, 64, 64, 2}, Activation::Tanh, rng);
  EXPECT_GT(small.flops_per_forward(), 0.0);
  EXPECT_GT(big.flops_per_forward(), small.flops_per_forward());
}

// ------------------------------------------------------------- optimizers

TEST(Adam, MinimizesQuadratic) {
  Vec w{5.0, -3.0};
  Vec g(2, 0.0);
  Adam opt({{&w, &g, "w"}}, 0.05);
  for (int i = 0; i < 2000; ++i) {
    g[0] = 2.0 * (w[0] - 1.0);
    g[1] = 2.0 * (w[1] + 2.0);
    opt.step();
  }
  EXPECT_NEAR(w[0], 1.0, 1e-2);
  EXPECT_NEAR(w[1], -2.0, 1e-2);
  EXPECT_EQ(opt.steps_taken(), 2000u);
}

// Bias correction makes Adam's first step lr * g / (|g| + eps): each
// weight moves by about the learning rate against its gradient's sign,
// whatever the gradient's scale.
TEST(Adam, FirstStepMovesEachWeightByTheLearningRate) {
  Vec w{1.0, -2.0, 0.5};
  Vec g{1000.0, -0.001, 3.0};
  Adam opt({{&w, &g, "w"}}, 0.1);
  opt.step();
  EXPECT_NEAR(w[0], 0.9, 1e-9);
  EXPECT_NEAR(w[1], -1.9, 1e-5);
  EXPECT_NEAR(w[2], 0.4, 1e-9);
  EXPECT_EQ(opt.steps_taken(), 1u);
}

TEST(Optimizer, ValidationAndZeroGrad) {
  Vec w{1.0};
  Vec g{5.0};
  EXPECT_NO_THROW(Adam({{&w, &g, "w"}}, 0.1));
  EXPECT_THROW(Adam({}, 0.1), InvalidArgument);
  EXPECT_THROW(Adam({{&w, &g, "w"}}, -1.0), InvalidArgument);
  Vec bad_g{1.0, 2.0};
  EXPECT_THROW(Adam({{&w, &bad_g, "w"}}, 0.1), InvalidArgument);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Vec w{0.0, 0.0};
  Vec g{3.0, 4.0};
  const double pre = clip_grad_norm({{&w, &g, "w"}}, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(std::hypot(g[0], g[1]), 1.0, 1e-12);
  // Under the threshold: untouched.
  Vec g2{0.3, 0.4};
  clip_grad_norm({{&w, &g2, "w"}}, 1.0);
  EXPECT_DOUBLE_EQ(g2[0], 0.3);
}

// ---------------------------------------------------------- distributions

TEST(Categorical, SoftmaxAndLogProbConsistent) {
  const Vec logits{1.0, 2.0, -1.0};
  const Vec p = Categorical::softmax(logits);
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(Categorical::log_prob(logits, a), std::log(p[a]), 1e-12);
  }
  EXPECT_THROW(Categorical::log_prob(logits, 3), InvalidArgument);
}

TEST(Categorical, SampleFrequenciesMatchProbabilities) {
  const Vec logits{0.0, 1.0};
  Rng rng(8);
  int ones = 0;
  for (int i = 0; i < 20000; ++i) ones += Categorical::sample(logits, rng) == 1;
  const double p1 = Categorical::softmax(logits)[1];
  EXPECT_NEAR(ones / 20000.0, p1, 0.02);
}

/// Entropy of softmax(logits).
double entropy(const Vec& logits) {
  Vec log_p;
  return Categorical::entropy_of(Categorical::softmax(logits), log_p);
}

TEST(Categorical, EntropyUniformIsLogN) {
  EXPECT_NEAR(entropy({0.5, 0.5, 0.5}), std::log(3.0), 1e-12);
  EXPECT_LT(entropy({10.0, 0.0, 0.0}), 0.01);
}

TEST(Categorical, GradientsMatchFiniteDifferences) {
  const Vec logits{0.4, -0.2, 1.3};
  const std::size_t a = 2;
  const Vec p = Categorical::softmax(logits);
  Vec log_p, glp, gent;
  const double h = Categorical::entropy_of(p, log_p);
  Categorical::log_prob_grad(p, a, glp);
  Categorical::entropy_grad(p, log_p, h, gent);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double nlp = num_grad(
        [&](double v) {
          Vec l = logits;
          l[i] = v;
          return Categorical::log_prob(l, a);
        },
        logits[i]);
    EXPECT_NEAR(glp[i], nlp, 1e-6);
    const double nent = num_grad(
        [&](double v) {
          Vec l = logits;
          l[i] = v;
          return entropy(l);
        },
        logits[i]);
    EXPECT_NEAR(gent[i], nent, 1e-6);
  }
}

TEST(DiagGaussian, LogProbClosedForm) {
  const Vec mean{0.0}, log_std{0.0}, x{0.0};
  EXPECT_NEAR(DiagGaussian::log_prob(mean, log_std, x),
              -0.5 * std::log(2.0 * std::numbers::pi), 1e-12);
  EXPECT_NEAR(DiagGaussian::entropy({0.0, 0.0}),
              2.0 * 0.5 * (std::log(2.0 * std::numbers::pi) + 1.0), 1e-12);
}

TEST(DiagGaussian, GradientsMatchFiniteDifferences) {
  const Vec mean{0.3, -0.5}, log_std{-0.2, 0.4}, x{0.8, -1.0};
  Vec dm, dls;
  DiagGaussian::log_prob_grad(mean, log_std, x, dm, dls);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double nm = num_grad(
        [&](double v) {
          Vec m = mean;
          m[i] = v;
          return DiagGaussian::log_prob(m, log_std, x);
        },
        mean[i]);
    EXPECT_NEAR(dm[i], nm, 1e-6);
    const double ns = num_grad(
        [&](double v) {
          Vec ls = log_std;
          ls[i] = v;
          return DiagGaussian::log_prob(mean, ls, x);
        },
        log_std[i]);
    EXPECT_NEAR(dls[i], ns, 1e-6);
  }
}

TEST(DiagGaussian, SampleMoments) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.push(DiagGaussian::sample({1.0}, {std::log(2.0)}, rng)[0]);
  }
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(SquashedGaussian, ActionsInsideUnitBox) {
  Rng rng(10);
  SquashedGaussian::Draw d;
  for (int i = 0; i < 200; ++i) {
    SquashedGaussian::sample({0.0, 2.0}, {0.5, 0.5}, rng, d);
    for (double a : d.action) {
      EXPECT_GT(a, -1.0);
      EXPECT_LT(a, 1.0);
    }
    EXPECT_TRUE(std::isfinite(d.log_prob));
  }
}

TEST(SquashedGaussian, LogProbConsistentWithDraw) {
  Rng rng(11);
  const Vec mean{0.2}, log_std{-0.3};
  SquashedGaussian::Draw d;
  SquashedGaussian::sample(mean, log_std, rng, d);
  EXPECT_NEAR(d.log_prob,
              SquashedGaussian::log_prob(mean, log_std, d.pre_tanh), 1e-12);
}

TEST(SquashedGaussian, PathwiseGradMatchesFiniteDifferences) {
  // L(mean, log_std) = c * log pi(a) + <ga, a>, a = tanh(mean + std * eps).
  const Vec mean{0.3, -0.4}, log_std{-0.5, 0.2}, eps{0.7, -1.1};
  const double c = 0.37;
  const Vec ga{0.9, -0.6};

  auto loss = [&](const Vec& m, const Vec& ls) {
    Vec z(m.size()), a(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
      z[i] = m[i] + std::exp(ls[i]) * eps[i];
      a[i] = std::tanh(z[i]);
    }
    double L = c * SquashedGaussian::log_prob(m, ls, z);
    for (std::size_t i = 0; i < m.size(); ++i) L += ga[i] * a[i];
    return L;
  };

  Vec z(mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i)
    z[i] = mean[i] + std::exp(log_std[i]) * eps[i];
  Vec dm, dls;
  SquashedGaussian::pathwise_grad(mean, log_std, z, eps, c, ga, dm, dls);

  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double nm = num_grad(
        [&](double v) {
          Vec m = mean;
          m[i] = v;
          return loss(m, log_std);
        },
        mean[i]);
    EXPECT_NEAR(dm[i], nm, 2e-5);
    const double ns = num_grad(
        [&](double v) {
          Vec ls = log_std;
          ls[i] = v;
          return loss(mean, ls);
        },
        log_std[i]);
    EXPECT_NEAR(dls[i], ns, 2e-5);
  }
}

}  // namespace
}  // namespace darl::nn
