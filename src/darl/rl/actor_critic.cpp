#include "darl/rl/actor_critic.hpp"

#include <algorithm>

#include "darl/common/error.hpp"
#include "darl/nn/distributions.hpp"

namespace darl::rl {
namespace {

/// Inference-only policy of an ActorCritic learner's rollout workers.
class ActorCriticActor final : public RolloutActor {
 public:
  ActorCriticActor(const nn::Mlp& actor, Vec log_std, env::ActionSpace space,
                   PolicyHead head)
      : net_(actor),  // copy
        log_std_(std::move(log_std)),
        space_(std::move(space)),
        head_(head) {}

  void set_params(const Vec& flat) override {
    const std::size_t net_n = net_.param_count();
    DARL_CHECK(flat.size() == net_n + log_std_.size(),
               "actor snapshot has " << flat.size() << " values, expected "
                                     << net_n + log_std_.size());
    Vec net_part(flat.begin(), flat.begin() + static_cast<std::ptrdiff_t>(net_n));
    net_.set_flat_params(net_part);
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(net_n), flat.end(),
              log_std_.begin());
  }

  ActOutput act(const Vec& obs, Rng& rng) override {
    const Vec head = net_.evaluate(obs);
    ActOutput out;
    if (head_ == PolicyHead::Categorical) {
      const std::size_t a = nn::Categorical::sample(head, rng);
      out.action = space_.discrete().encode(a);
      out.log_prob = nn::Categorical::log_prob(head, a);
    } else {
      const Vec raw = nn::DiagGaussian::sample(head, log_std_, rng);
      out.log_prob = nn::DiagGaussian::log_prob(head, log_std_, raw);
      out.action = space_.box().clip(raw);
      // log_prob intentionally refers to the unclipped draw (standard
      // practice: the clip is part of the environment interface).
    }
    return out;
  }

  Vec act_greedy(const Vec& obs) override {
    const Vec head = net_.evaluate(obs);
    Vec action(space_.action_dim());
    greedy_action(head_, space_, head.data(), action.data());
    return action;
  }

  double inference_cost_mflop() const override {
    return net_.flops_per_forward() / 1e6;
  }

 private:
  nn::Mlp net_;
  Vec log_std_;
  env::ActionSpace space_;
  PolicyHead head_;
};

}  // namespace

ActorCritic::ActorCritic(AlgoKind kind, std::size_t obs_dim,
                         env::ActionSpace action_space,
                         const std::vector<std::size_t>& hidden,
                         double learning_rate, double log_std_init,
                         std::uint64_t seed)
    : shape_(policy_shape(kind, obs_dim, action_space, hidden)),
      obs_dim_(obs_dim),
      action_space_(std::move(action_space)),
      rng_(seed),
      actor_([&] {
        Rng init = rng_.split(1);
        return nn::Mlp(shape_.sizes, shape_.activation, init);
      }()),
      critic_([&] {
        Rng init = rng_.split(2);
        return nn::Mlp(mlp_sizes(obs_dim, hidden, 1), nn::Activation::Tanh,
                       init);
      }()),
      kind_(kind),
      log_std_(shape_.tail, log_std_init),
      log_std_grad_(shape_.tail, 0.0),
      actor_params_(actor_.params()) {
  DARL_CHECK(obs_dim > 0, "obs_dim must be positive");
  if (!log_std_.empty()) {
    actor_params_.push_back(nn::ParamRef{&log_std_, &log_std_grad_, "log_std"});
  }
  actor_opt_ = std::make_unique<nn::Adam>(actor_params_, learning_rate);
  critic_opt_ = std::make_unique<nn::Adam>(critic_.params(), learning_rate);
}

std::unique_ptr<RolloutActor> ActorCritic::make_actor() const {
  return std::make_unique<ActorCriticActor>(actor_, log_std_, action_space_,
                                            shape_.head);
}

Vec ActorCritic::policy_params() const {
  Vec flat = actor_.get_flat_params();
  flat.insert(flat.end(), log_std_.begin(), log_std_.end());
  return flat;
}

std::size_t ActorCritic::params_bytes() const {
  return (actor_.param_count() + log_std_.size()) * sizeof(double);
}

std::size_t ActorCritic::transition_bytes() const {
  // obs + next_obs + action + scalars, in doubles.
  return (2 * obs_dim_ + action_space_.action_dim() + 4) * sizeof(double);
}

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
  if (shape_.head == PolicyHead::Categorical) {
    return nn::Categorical::log_prob(head_scratch_,
                                     action_space_.discrete().decode(action));
  }
  return nn::DiagGaussian::log_prob(head_scratch_, log_std_, action);
}

double ActorCritic::policy_grad(const double* head, const Vec& action,
                                double d_logp, double entropy_coef,
                                double scale, double* d_head) {
  const std::size_t dim = actor_.output_dim();
  head_scratch_.assign(head, head + dim);
  if (shape_.head == PolicyHead::Categorical) {
    const std::size_t a = action_space_.discrete().decode(action);
    const Vec g_logp = nn::Categorical::log_prob_grad(head_scratch_, a);
    const Vec g_ent = nn::Categorical::entropy_grad(head_scratch_);
    for (std::size_t i = 0; i < dim; ++i) {
      d_head[i] = scale * (d_logp * g_logp[i] - entropy_coef * g_ent[i]);
    }
    return nn::Categorical::entropy(head_scratch_);
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
  nn::clip_grad_norm(critic_.params(), max_grad_norm);
  actor_opt_->step();
  critic_opt_->step();
}

}  // namespace darl::rl
