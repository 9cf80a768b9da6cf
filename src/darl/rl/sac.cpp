#include "darl/rl/sac.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/error.hpp"
#include "darl/nn/distributions.hpp"
#include "darl/obs/trace.hpp"
#include "darl/rl/policy.hpp"

namespace darl::rl {
namespace {

/// Split one actor head row into its mean and its log-std, the raw
/// log-std softly clamped into [lo, hi] through tanh.
void split_head(const double* head, std::size_t dim, double lo, double hi,
                Vec& mean, Vec& log_std) {
  mean.assign(head, head + dim);
  log_std.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    log_std[i] = lo + 0.5 * (hi - lo) * (std::tanh(head[dim + i]) + 1.0);
  }
}

/// Affine map between the squashed action in [-1,1]^d and the env box.
Vec scale_to_box(const Vec& squashed, const env::BoxSpace& box) {
  Vec out(squashed.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = box.low()[i] +
             0.5 * (squashed[i] + 1.0) * (box.high()[i] - box.low()[i]);
  }
  return out;
}

Vec unscale_from_box(const Vec& env_action, const env::BoxSpace& box) {
  Vec out(env_action.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double span = box.high()[i] - box.low()[i];
    const double v = span > 0.0
                         ? 2.0 * (env_action[i] - box.low()[i]) / span - 1.0
                         : 0.0;
    out[i] = std::clamp(v, -0.999999, 0.999999);
  }
  return out;
}

/// Inference-only SAC policy for rollout workers.
class SacActor final : public RolloutActor {
 public:
  SacActor(const nn::Mlp& actor, env::ActionSpace space, double log_std_min,
           double log_std_max)
      : net_(actor),
        space_(std::move(space)),
        lo_(log_std_min),
        hi_(log_std_max) {}

  void set_params(const Vec& flat) override { net_.set_flat_params(flat); }

  ActOutput act(const Vec& obs, Rng& rng) override {
    const Vec head = net_.evaluate(obs);
    Vec mean, log_std;
    split_head(head.data(), head.size() / 2, lo_, hi_, mean, log_std);
    const auto draw = nn::SquashedGaussian::sample(mean, log_std, rng);
    ActOutput out;
    out.action = scale_to_box(draw.action, space_.box());
    out.log_prob = draw.log_prob;
    return out;
  }

  Vec act_greedy(const Vec& obs) override {
    const Vec head = net_.evaluate(obs);
    Vec action(space_.action_dim());
    greedy_action(PolicyHead::SquashedGaussian, space_, head.data(),
                  action.data());
    return action;
  }

  double inference_cost_mflop() const override {
    return net_.flops_per_forward() / 1e6;
  }

 private:
  nn::Mlp net_;
  env::ActionSpace space_;
  double lo_, hi_;
};

}  // namespace

SacAlgorithm::SacAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
                           SacConfig config, std::uint64_t seed)
    : obs_dim_(obs_dim),
      act_dim_([&] {
        DARL_CHECK(action_space.is_box(),
                   "SAC requires a continuous action space, got "
                       << action_space.describe());
        return action_space.box().dim();
      }()),
      action_space_(std::move(action_space)),
      config_(std::move(config)),
      rng_(seed),
      actor_([&] {
        Rng init = rng_.split(1);
        const PolicyShape shape = policy_shape(AlgoKind::SAC, obs_dim,
                                               action_space_, config_.hidden);
        return nn::Mlp(shape.sizes, shape.activation, init);
      }()),
      q1_([&] {
        Rng init = rng_.split(2);
        return nn::Mlp(mlp_sizes(obs_dim + act_dim_, config_.hidden, 1),
                       nn::Activation::ReLU, init);
      }()),
      q2_([&] {
        Rng init = rng_.split(3);
        return nn::Mlp(mlp_sizes(obs_dim + act_dim_, config_.hidden, 1),
                       nn::Activation::ReLU, init);
      }()),
      q1_target_(q1_),
      q2_target_(q2_),
      replay_(config_.replay_capacity) {
  DARL_CHECK(obs_dim > 0, "obs_dim must be positive");
  DARL_CHECK(config_.batch_size > 0, "batch_size must be positive");
  DARL_CHECK(config_.tau > 0.0 && config_.tau <= 1.0, "tau out of (0,1]");
  DARL_CHECK(config_.updates_per_step >= 0.0, "updates_per_step negative");
  DARL_CHECK(config_.init_alpha > 0.0, "init_alpha must be positive");

  // Bias the raw log-std head positive so the initial policy explores
  // widely (standard SAC behaviour via start-steps random acting; here the
  // same effect comes from a broad initial Gaussian).
  {
    auto params = actor_.params();
    Vec& last_bias = *params[params.size() - 1].value;
    DARL_ASSERT(last_bias.size() == 2 * act_dim_, "unexpected actor head size");
    for (std::size_t i = 0; i < act_dim_; ++i) last_bias[act_dim_ + i] = 0.5;
  }

  log_alpha_.assign(1, std::log(config_.init_alpha));
  log_alpha_grad_.assign(1, 0.0);
  target_entropy_ = config_.target_entropy != 0.0
                        ? config_.target_entropy
                        : -static_cast<double>(act_dim_);

  actor_opt_ = std::make_unique<nn::Adam>(actor_.params(), config_.learning_rate);
  q1_opt_ = std::make_unique<nn::Adam>(q1_.params(), config_.learning_rate);
  q2_opt_ = std::make_unique<nn::Adam>(q2_.params(), config_.learning_rate);
  alpha_opt_ = std::make_unique<nn::Adam>(
      std::vector<nn::ParamRef>{{&log_alpha_, &log_alpha_grad_, "log_alpha"}},
      config_.learning_rate);
}

double SacAlgorithm::alpha() const { return std::exp(log_alpha_[0]); }

std::unique_ptr<RolloutActor> SacAlgorithm::make_actor() const {
  return std::make_unique<SacActor>(actor_, action_space_,
                                    config_.log_std_min, config_.log_std_max);
}

Vec SacAlgorithm::policy_params() const { return actor_.get_flat_params(); }

std::size_t SacAlgorithm::params_bytes() const {
  return actor_.param_count() * sizeof(double);
}

std::size_t SacAlgorithm::transition_bytes() const {
  return (2 * obs_dim_ + act_dim_ + 4) * sizeof(double);
}

void SacAlgorithm::polyak_update() {
  // Blend each target buffer in place against its online twin.
  const double tau = config_.tau;
  const auto blend = [tau](nn::Mlp& target, nn::Mlp& online) {
    const std::vector<nn::ParamRef> tp = target.params();
    const std::vector<nn::ParamRef> op = online.params();
    for (std::size_t b = 0; b < tp.size(); ++b) {
      Vec& tv = *tp[b].value;
      const Vec& ov = *op[b].value;
      for (std::size_t i = 0; i < tv.size(); ++i)
        tv[i] = (1.0 - tau) * tv[i] + tau * ov[i];
    }
  };
  blend(q1_target_, q1_);
  blend(q2_target_, q2_);
}

void SacAlgorithm::one_update(TrainStats& stats) {
  const std::vector<const Transition*> batch =
      replay_.sample(config_.batch_size, rng_);
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  const double a_now = alpha();

  // --- 1) Critic targets y = r + gamma (1-d)(min Q_t(s',a') - alpha logp').
  // One batched actor pass and one batched pass per target critic over the
  // non-terminal rows; the policy draws stay per-sample in ascending batch
  // order so the rng_ stream is identical to the per-sample loop.
  std::vector<double> targets(batch.size());
  {
    DARL_SPAN("rl.sac.target");
    nonterm_idx_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i]->terminated) nonterm_idx_.push_back(i);
    }
    if (!nonterm_idx_.empty()) {
      mb_obs_.reshape(nonterm_idx_.size(), obs_dim_);
      for (std::size_t k = 0; k < nonterm_idx_.size(); ++k) {
        const Vec& nobs = batch[nonterm_idx_[k]]->next_obs;
        std::copy(nobs.begin(), nobs.end(), mb_obs_.row(k));
      }
      const Matrix& heads = actor_.evaluate_batch(mb_obs_);
      mb_qin_.reshape(nonterm_idx_.size(), obs_dim_ + act_dim_);
      tgt_logp_.resize(nonterm_idx_.size());
      for (std::size_t k = 0; k < nonterm_idx_.size(); ++k) {
        const Transition& tr = *batch[nonterm_idx_[k]];
        split_head(heads.row(k), act_dim_, config_.log_std_min,
                   config_.log_std_max, mean_scratch_, log_std_scratch_);
        const auto draw =
            nn::SquashedGaussian::sample(mean_scratch_, log_std_scratch_, rng_);
        double* qrow = mb_qin_.row(k);
        std::copy(tr.next_obs.begin(), tr.next_obs.end(), qrow);
        std::copy(draw.action.begin(), draw.action.end(), qrow + obs_dim_);
        tgt_logp_[k] = draw.log_prob;
      }
      const Matrix& q1v = q1_target_.evaluate_batch(mb_qin_);
      const Matrix& q2v = q2_target_.evaluate_batch(mb_qin_);
      for (std::size_t k = 0; k < nonterm_idx_.size(); ++k) {
        const double qmin = std::min(q1v(k, 0), q2v(k, 0));
        targets[nonterm_idx_[k]] =
            batch[nonterm_idx_[k]]->reward +
            config_.gamma * (qmin - a_now * tgt_logp_[k]);
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i]->terminated) targets[i] = batch[i]->reward;
    }
  }

  // --- 2) Critic updates (MSE to targets): one forward/backward batch per
  // critic instead of per sample.
  double q_loss = 0.0;
  {
    DARL_SPAN("rl.sac.critic");
    q1_.zero_grad();
    q2_.zero_grad();
    mb_qin_.reshape(batch.size(), obs_dim_ + act_dim_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Transition& tr = *batch[i];
      const Vec squashed = unscale_from_box(tr.action, action_space_.box());
      double* qrow = mb_qin_.row(i);
      std::copy(tr.obs.begin(), tr.obs.end(), qrow);
      std::copy(squashed.begin(), squashed.end(), qrow + obs_dim_);
    }
    const Matrix& cv1 = q1_.forward_batch(mb_qin_);
    const Matrix& cv2 = q2_.forward_batch(mb_qin_);
    mb_d1_.reshape(batch.size(), 1);
    mb_d2_.reshape(batch.size(), 1);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double e1 = cv1(i, 0) - targets[i];
      const double e2 = cv2(i, 0) - targets[i];
      mb_d1_(i, 0) = inv_b * e1;
      mb_d2_(i, 0) = inv_b * e2;
      q_loss += 0.5 * inv_b * (e1 * e1 + e2 * e2);
    }
    q1_.backward_batch(mb_d1_, nn::Grad::Params);
    q2_.backward_batch(mb_d2_, nn::Grad::Params);
    nn::clip_grad_norm(q1_.params(), config_.max_grad_norm);
    nn::clip_grad_norm(q2_.params(), config_.max_grad_norm);
    q1_opt_->step();
    q2_opt_->step();
  }

  // --- 3) Actor update: minimize alpha logp - min Q(s, a(s)).
  // Batched: one actor forward over the batch, per-sample draws in rng
  // order, one forward per critic over the batch to pick the smaller
  // critic per row, one input-gradient backward per critic to pull dQ/da
  // out of its own rows, and a single actor backward batch.
  double logp_sum = 0.0;
  {
    DARL_SPAN("rl.sac.actor");
    actor_.zero_grad();
    mb_obs_.reshape(batch.size(), obs_dim_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::copy(batch[i]->obs.begin(), batch[i]->obs.end(), mb_obs_.row(i));
    }
    const Matrix& heads = actor_.forward_batch(mb_obs_);
    draws_.resize(batch.size());
    means_.resize(batch.size());
    log_stds_.resize(batch.size());
    mb_qin_.reshape(batch.size(), obs_dim_ + act_dim_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Transition& tr = *batch[i];
      split_head(heads.row(i), act_dim_, config_.log_std_min,
                 config_.log_std_max, means_[i], log_stds_[i]);
      draws_[i] = nn::SquashedGaussian::sample(means_[i], log_stds_[i], rng_);
      logp_sum += draws_[i].log_prob;
      double* qrow = mb_qin_.row(i);
      std::copy(tr.obs.begin(), tr.obs.end(), qrow);
      std::copy(draws_[i].action.begin(), draws_[i].action.end(),
                qrow + obs_dim_);
    }
    // Each row reads dQ/da from the critic with the smaller Q (q1 on
    // ties, as the per-sample path did): dy is 1.0 on that critic's own
    // rows and 0.0 elsewhere. Every pass is row-independent, so the rows
    // read carry the bits of a pass over that critic's rows alone. The
    // input-gradient mode leaves the critics' parameter gradients alone.
    const Matrix& av1 = q1_.forward_batch(mb_qin_);
    const Matrix& av2 = q2_.forward_batch(mb_qin_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool first = av1(i, 0) <= av2(i, 0);
      mb_d1_(i, 0) = first ? 1.0 : 0.0;
      mb_d2_(i, 0) = first ? 0.0 : 1.0;
    }
    const Matrix& din1 = q1_.backward_batch(mb_d1_, nn::Grad::Input);
    const Matrix& din2 = q2_.backward_batch(mb_d2_, nn::Grad::Input);
    // dL/da = -dQ/da of the chosen critic (dQ/d[obs, action] rows).
    mb_ga_.reshape(batch.size(), act_dim_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double* drow = mb_d1_(i, 0) == 1.0 ? din1.row(i) : din2.row(i);
      double* ga = mb_ga_.row(i);
      for (std::size_t j = 0; j < act_dim_; ++j) ga[j] = -drow[obs_dim_ + j];
    }
    mb_dhead_.reshape(batch.size(), 2 * act_dim_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      grad_action_.assign(mb_ga_.row(i), mb_ga_.row(i) + act_dim_);
      nn::SquashedGaussian::pathwise_grad(means_[i], log_stds_[i],
                                          draws_[i].pre_tanh, draws_[i].noise,
                                          a_now, grad_action_, d_mean_,
                                          d_log_std_);
      // Chain d_log_std through the soft clamp log_std = f(raw).
      double* dh = mb_dhead_.row(i);
      for (std::size_t j = 0; j < act_dim_; ++j) {
        dh[j] = inv_b * d_mean_[j];
        const double t = std::tanh(heads(i, act_dim_ + j));
        const double dclamp =
            0.5 * (config_.log_std_max - config_.log_std_min) * (1.0 - t * t);
        dh[act_dim_ + j] = inv_b * d_log_std_[j] * dclamp;
      }
    }
    actor_.backward_batch(mb_dhead_, nn::Grad::Params);
    nn::clip_grad_norm(actor_.params(), config_.max_grad_norm);
    actor_opt_->step();
  }

  // --- 4) Temperature update: J(alpha) = E[-alpha (logp + target_entropy)].
  const double mean_logp = logp_sum * inv_b;
  {
    DARL_SPAN("rl.sac.alpha");
    log_alpha_grad_[0] = -a_now * (mean_logp + target_entropy_);
    alpha_opt_->step();
  }

  // --- 5) Target networks.
  {
    DARL_SPAN("rl.sac.polyak");
    polyak_update();
  }

  ++stats.gradient_steps;
  stats.value_loss += q_loss;
  stats.entropy += -mean_logp;

  // Simulated compute cost of this update.
  const double af = actor_.flops_per_forward();
  const double qf = q1_.flops_per_forward();
  const double b = static_cast<double>(batch.size());
  // targets: actor fwd + 2 target fwd; critics: 2 * (fwd + bwd);
  // actor: fwd + bwd + 3 critic fwd + critic bwd.
  stats.train_cost_mflop +=
      b * ((af + 2.0 * qf) + 2.0 * 3.0 * qf + (3.0 * af + 5.0 * qf)) / 1e6;
}

TrainStats SacAlgorithm::train(const std::vector<WorkerBatch>& batches) {
  TrainStats stats;
  std::size_t pushed = 0;
  for (const auto& b : batches) {
    for (const auto& tr : b.transitions) {
      replay_.push(tr);
      ++pushed;
    }
  }
  stats.samples = pushed;
  if (replay_size() < std::max<std::size_t>(config_.warmup_steps,
                                            config_.batch_size)) {
    return stats;
  }

  update_carry_ += static_cast<double>(pushed) * config_.updates_per_step;
  std::size_t n_updates = static_cast<std::size_t>(update_carry_);
  update_carry_ -= static_cast<double>(n_updates);
  for (std::size_t u = 0; u < n_updates; ++u) one_update(stats);

  if (stats.gradient_steps > 0) {
    stats.value_loss /= static_cast<double>(stats.gradient_steps);
    stats.entropy /= static_cast<double>(stats.gradient_steps);
  }
  return stats;
}

}  // namespace darl::rl
