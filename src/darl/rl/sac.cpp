#include "darl/rl/sac.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/nn/distributions.hpp"
#include "darl/obs/trace.hpp"
#include "darl/rl/policy.hpp"

namespace darl::rl {

SacAlgorithm::SacAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
                           SacConfig config, std::uint64_t seed)
    : Algorithm(AlgoKind::SAC, obs_dim, std::move(action_space), config.hidden,
                config.learning_rate, /*log_std_init=*/0.0, seed),
      act_dim_(action_space_.box().dim()),
      config_(std::move(config)),
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
      q1_params_(q1_.params()),
      q2_params_(q2_.params()),
      q1_target_params_(q1_target_.params()),
      q2_target_params_(q2_target_.params()),
      replay_(config_.replay_capacity) {
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

  log_alpha_.assign(1, math::log(config_.init_alpha));
  log_alpha_grad_.assign(1, 0.0);
  target_entropy_ = config_.target_entropy != 0.0
                        ? config_.target_entropy
                        : -static_cast<double>(act_dim_);

  q1_opt_ = std::make_unique<nn::Adam>(q1_params_, config_.learning_rate);
  q2_opt_ = std::make_unique<nn::Adam>(q2_params_, config_.learning_rate);
  alpha_opt_ = std::make_unique<nn::Adam>(
      std::vector<nn::ParamRef>{{&log_alpha_, &log_alpha_grad_, "log_alpha"}},
      config_.learning_rate);
}

double SacAlgorithm::alpha() const { return math::exp(log_alpha_[0]); }

void SacAlgorithm::polyak_update() {
  // Blend each target buffer in place against its online twin.
  const double tau = config_.tau;
  const auto blend = [tau](const std::vector<nn::ParamRef>& tp,
                           const std::vector<nn::ParamRef>& op) {
    for (std::size_t b = 0; b < tp.size(); ++b) {
      Vec& tv = *tp[b].value;
      const Vec& ov = *op[b].value;
      for (std::size_t i = 0; i < tv.size(); ++i)
        tv[i] = (1.0 - tau) * tv[i] + tau * ov[i];
    }
  };
  blend(q1_target_params_, q1_params_);
  blend(q2_target_params_, q2_params_);
}

void SacAlgorithm::one_update(TrainStats& stats) {
  replay_.sample(config_.batch_size, rng_, batch_);
  const std::vector<const Transition*>& batch = batch_;
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  const double a_now = alpha();
  // Per-row draw storage, shared by the target and the actor step.
  targets_.resize(batch.size());
  draws_.resize(batch.size());
  means_.resize(batch.size());
  log_stds_.resize(batch.size());

  // --- 1) Critic targets y = r + gamma (1-d)(min Q_t(s',a') - alpha logp').
  // One batched actor pass and one batched pass per target critic over the
  // non-terminal rows; the policy draws stay per-sample in ascending batch
  // order so the rng_ stream is identical to the per-sample loop.
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
      for (std::size_t k = 0; k < nonterm_idx_.size(); ++k) {
        const Transition& tr = *batch[nonterm_idx_[k]];
        split_squashed(heads.row(k), act_dim_, means_[k], log_stds_[k]);
        nn::SquashedGaussian::sample(means_[k], log_stds_[k], rng_, draws_[k]);
        double* qrow = mb_qin_.row(k);
        std::copy(tr.next_obs.begin(), tr.next_obs.end(), qrow);
        std::copy(draws_[k].action.begin(), draws_[k].action.end(),
                  qrow + obs_dim_);
      }
      const Matrix& q1v = q1_target_.evaluate_batch(mb_qin_);
      const Matrix& q2v = q2_target_.evaluate_batch(mb_qin_);
      for (std::size_t k = 0; k < nonterm_idx_.size(); ++k) {
        const double qmin = std::min(q1v(k, 0), q2v(k, 0));
        targets_[nonterm_idx_[k]] =
            batch[nonterm_idx_[k]]->reward +
            config_.gamma * (qmin - a_now * draws_[k].log_prob);
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i]->terminated) targets_[i] = batch[i]->reward;
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
      double* qrow = mb_qin_.row(i);
      std::copy(tr.obs.begin(), tr.obs.end(), qrow);
      box_to_squash(action_space_.box(), tr.action.data(), qrow + obs_dim_);
    }
    const Matrix& cv1 = q1_.forward_batch(mb_qin_);
    const Matrix& cv2 = q2_.forward_batch(mb_qin_);
    mb_d1_.reshape(batch.size(), 1);
    mb_d2_.reshape(batch.size(), 1);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double e1 = cv1(i, 0) - targets_[i];
      const double e2 = cv2(i, 0) - targets_[i];
      mb_d1_(i, 0) = inv_b * e1;
      mb_d2_(i, 0) = inv_b * e2;
      q_loss += 0.5 * inv_b * (e1 * e1 + e2 * e2);
    }
    q1_.backward_batch(mb_d1_, nn::Grad::Params);
    q2_.backward_batch(mb_d2_, nn::Grad::Params);
    nn::clip_grad_norm(q1_params_, config_.max_grad_norm);
    nn::clip_grad_norm(q2_params_, config_.max_grad_norm);
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
    mb_qin_.reshape(batch.size(), obs_dim_ + act_dim_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Transition& tr = *batch[i];
      split_squashed(heads.row(i), act_dim_, means_[i], log_stds_[i]);
      nn::SquashedGaussian::sample(means_[i], log_stds_[i], rng_, draws_[i]);
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
        dh[act_dim_ + j] = inv_b * d_log_std_[j] *
                           squashed_log_std_slope(heads(i, act_dim_ + j));
      }
    }
    actor_.backward_batch(mb_dhead_, nn::Grad::Params);
    nn::clip_grad_norm(actor_params_, config_.max_grad_norm);
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
