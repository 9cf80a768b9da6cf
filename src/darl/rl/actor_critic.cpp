#include "darl/rl/actor_critic.hpp"

#include <algorithm>

#include "darl/common/error.hpp"
#include "darl/nn/distributions.hpp"

namespace darl::rl {

ActorCritic::ActorCritic(AlgoKind kind, std::size_t obs_dim,
                         env::ActionSpace action_space,
                         const std::vector<std::size_t>& hidden,
                         double learning_rate, double log_std_init,
                         std::uint64_t seed)
    : Algorithm(kind, obs_dim, std::move(action_space), hidden, learning_rate,
                log_std_init, seed),
      critic_([&] {
        Rng init = rng_.split(2);
        return nn::Mlp(mlp_sizes(obs_dim, hidden, 1), nn::Activation::Tanh,
                       init);
      }()),
      critic_params_(critic_.params()),
      critic_opt_(std::make_unique<nn::Adam>(critic_params_, learning_rate)) {}

double ActorCritic::critic_pass(const std::vector<Transition>& stream,
                                std::vector<double>& values,
                                std::vector<double>& boots) {
  const std::size_t n = stream.size();
  stream_obs_.reshape(n, obs_dim_);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(stream[i].obs.begin(), stream[i].obs.end(), stream_obs_.row(i));
  }
  {
    const Matrix& v = critic_.evaluate_batch(stream_obs_);
    for (std::size_t i = 0; i < n; ++i) values[i] = v(i, 0);
  }
  // V(next_obs) is evaluated only at stream ends and truncations; inside
  // an episode it is the next row's V(obs).
  double evals = static_cast<double>(n);
  boot_idx_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    boots[i] = 0.0;
    if (i + 1 < n && !stream[i].done()) continue;
    if (!stream[i].terminated) boot_idx_.push_back(i);
    evals += 1.0;
  }
  if (!boot_idx_.empty()) {
    boot_obs_.reshape(boot_idx_.size(), obs_dim_);
    for (std::size_t k = 0; k < boot_idx_.size(); ++k) {
      const Vec& nobs = stream[boot_idx_[k]].next_obs;
      std::copy(nobs.begin(), nobs.end(), boot_obs_.row(k));
    }
    const Matrix& v = critic_.evaluate_batch(boot_obs_);
    for (std::size_t k = 0; k < boot_idx_.size(); ++k)
      boots[boot_idx_[k]] = v(k, 0);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!stream[i].done()) boots[i] = values[i + 1];
  }
  return evals;
}

double ActorCritic::log_prob(const double* head, const Vec& action) {
  head_scratch_.assign(head, head + actor_.output_dim());
  return head_log_prob(shape_.head, action_space_, head_scratch_, log_std_,
                       action);
}

double ActorCritic::policy_grad(const double* head, const Vec& action,
                                double d_logp, double entropy_coef,
                                double scale, double* d_head) {
  const std::size_t dim = actor_.output_dim();
  head_scratch_.assign(head, head + dim);
  if (shape_.head == PolicyHead::Categorical) {
    // One softmax per row serves H and both gradients.
    const std::size_t a = action_space_.discrete().decode(action);
    nn::Categorical::softmax(head_scratch_, probs_);
    const double h = nn::Categorical::entropy_of(probs_, log_probs_);
    nn::Categorical::log_prob_grad(probs_, a, g_logp_);
    nn::Categorical::entropy_grad(probs_, log_probs_, h, g_ent_);
    for (std::size_t i = 0; i < dim; ++i) {
      d_head[i] = scale * (d_logp * g_logp_[i] - entropy_coef * g_ent_[i]);
    }
    return h;
  }
  nn::DiagGaussian::log_prob_grad(head_scratch_, log_std_, action, d_mean_,
                                  d_log_std_);
  for (std::size_t i = 0; i < dim; ++i) {
    d_head[i] = scale * d_logp * d_mean_[i];
    // A Gaussian's entropy does not depend on its mean; the bonus flows
    // into log_std only (d entropy / d log_std = 1).
    log_std_grad_[i] += scale * (d_logp * d_log_std_[i] - entropy_coef);
  }
  return nn::DiagGaussian::entropy(log_std_);
}

void ActorCritic::zero_grad() {
  actor_.zero_grad();
  std::fill(log_std_grad_.begin(), log_std_grad_.end(), 0.0);
  critic_.zero_grad();
}

void ActorCritic::clip_and_step(double max_grad_norm) {
  nn::clip_grad_norm(actor_params_, max_grad_norm);
  nn::clip_grad_norm(critic_params_, max_grad_norm);
  actor_opt_->step();
  critic_opt_->step();
}

}  // namespace darl::rl
