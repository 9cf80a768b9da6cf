// darl/nn/distributions.hpp
//
// Policy-head probability distributions with the exact gradient formulas the
// RL algorithms need: categorical over logits (discrete PPO), diagonal
// Gaussian (continuous PPO) and tanh-squashed Gaussian with reparameterized
// sampling (SAC).

#pragma once

#include <cstddef>

#include "darl/linalg/vec.hpp"

namespace darl {
class Rng;
}

namespace darl::nn {

/// Categorical distribution parameterized by unnormalized logits.
struct Categorical {
  /// Numerically stable softmax.
  static Vec softmax(const Vec& logits);

  /// The same softmax into `p` (resized to match; keeps its capacity).
  static void softmax(const Vec& logits, Vec& p);

  /// Shannon entropy H of a softmax `p`, writing log p_k into `log_p`
  /// (resized to match; -745 where p_k underflowed to 0). One softmax then
  /// serves H and both gradients below.
  static double entropy_of(const Vec& p, Vec& log_p);

  /// Sample an index.
  static std::size_t sample(const Vec& logits, Rng& rng);

  /// log p(a) under softmax(logits).
  static double log_prob(const Vec& logits, std::size_t a);

  /// d log p(a) / d logits = onehot(a) - p into `g` (resized to match),
  /// for p = softmax(logits).
  static void log_prob_grad(const Vec& p, std::size_t a, Vec& g);

  /// d H / d logits = -p_k (log p_k + H) into `g` (resized to match), for
  /// p = softmax(logits) and h = entropy_of(p, log_p).
  static void entropy_grad(const Vec& p, const Vec& log_p, double h, Vec& g);
};

/// Diagonal Gaussian with externally produced mean and log-std vectors.
struct DiagGaussian {
  /// Draw x ~ N(mean, exp(log_std)^2).
  static Vec sample(const Vec& mean, const Vec& log_std, Rng& rng);

  /// log density of x.
  static double log_prob(const Vec& mean, const Vec& log_std, const Vec& x);

  /// Differential entropy (depends only on log_std).
  static double entropy(const Vec& log_std);

  /// Gradients of log_prob with respect to mean and log_std (score
  /// function, used by PPO's likelihood-ratio objective). Outputs are
  /// resized to match.
  static void log_prob_grad(const Vec& mean, const Vec& log_std, const Vec& x,
                            Vec& d_mean, Vec& d_log_std);
};

/// Tanh-squashed Gaussian for SAC: a = tanh(z), z = mean + exp(log_std)*eps.
/// log-probabilities include the tanh change-of-variables correction.
struct SquashedGaussian {
  /// Numerical floor inside log(1 - tanh(z)^2 + kEps).
  static constexpr double kEps = 1e-6;

  struct Draw {
    Vec action;    ///< tanh(z), in (-1, 1)
    Vec pre_tanh;  ///< z
    Vec noise;     ///< eps
    double log_prob = 0.0;
  };

  /// Reparameterized sample into `out`, whose vectors keep their
  /// capacity from draw to draw.
  static void sample(const Vec& mean, const Vec& log_std, Rng& rng, Draw& out);

  /// log-probability of an existing draw (recomputed from z).
  static double log_prob(const Vec& mean, const Vec& log_std,
                         const Vec& pre_tanh);

  /// Pathwise gradients through the reparameterized draw.
  ///
  /// For a loss L = c_logp * log pi(a|s) + <grad_action, a> (per sample),
  /// fills d_mean and d_log_std with dL/dmean and dL/dlog_std. grad_action
  /// is dL/da from, e.g., back-propagating the critic through its action
  /// input.
  static void pathwise_grad(const Vec& mean, const Vec& log_std,
                            const Vec& pre_tanh, const Vec& noise,
                            double c_logp, const Vec& grad_action, Vec& d_mean,
                            Vec& d_log_std);
};

}  // namespace darl::nn
