#include "darl/rl/impala.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/error.hpp"
#include "darl/nn/distributions.hpp"
#include "darl/rl/ppo.hpp"

namespace darl::rl {
namespace {

std::vector<std::size_t> net_sizes(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

}  // namespace

VtraceResult compute_vtrace(const std::vector<Transition>& stream,
                            const std::vector<double>& log_ratio,
                            const std::vector<double>& values,
                            const std::vector<double>& bootstrap, double gamma,
                            double rho_clip, double c_clip) {
  const std::size_t n = stream.size();
  DARL_CHECK(log_ratio.size() == n && values.size() == n && bootstrap.size() == n,
             "compute_vtrace size mismatch");
  DARL_CHECK(gamma >= 0.0 && gamma <= 1.0, "gamma out of [0,1]");
  DARL_CHECK(rho_clip > 0.0 && c_clip > 0.0, "clips must be positive");

  VtraceResult out;
  out.vs.resize(n);
  out.pg_adv.resize(n);
  out.rho.resize(n);

  // Backward recursion: vs_t - V(t) = delta_t + gamma c_t (vs_{t+1} -
  // V(t+1)), with the accumulator reset at episode boundaries.
  double next_excess = 0.0;   // vs_{t+1} - V(s_{t+1})
  double next_value = 0.0;    // V(s_{t+1})
  for (std::size_t i = n; i-- > 0;) {
    const Transition& tr = stream[i];
    const double ratio = std::exp(log_ratio[i]);
    const double rho = std::min(rho_clip, ratio);
    const double c = std::min(c_clip, ratio);
    out.rho[i] = rho;

    double v_next;
    double excess_next;
    if (tr.done()) {
      v_next = tr.terminated ? 0.0 : bootstrap[i];
      excess_next = 0.0;  // no trace across episodes
    } else {
      v_next = (i + 1 < n) ? values[i + 1] : bootstrap[i];
      excess_next = (i + 1 < n) ? next_excess : 0.0;
    }

    const double delta = rho * (tr.reward + gamma * v_next - values[i]);
    const double excess = delta + gamma * c * excess_next;
    out.vs[i] = values[i] + excess;
    // Policy-gradient advantage uses vs_{t+1}, i.e. v_next + excess_next.
    out.pg_adv[i] =
        rho * (tr.reward + gamma * (v_next + excess_next) - values[i]);

    next_excess = excess;
    next_value = values[i];
    (void)next_value;
  }
  return out;
}

ImpalaAlgorithm::ImpalaAlgorithm(std::size_t obs_dim,
                                 env::ActionSpace action_space,
                                 ImpalaConfig config, std::uint64_t seed)
    : obs_dim_(obs_dim),
      action_space_(std::move(action_space)),
      config_(std::move(config)),
      rng_(seed),
      actor_([&] {
        Rng init = rng_.split(1);
        return nn::Mlp(net_sizes(obs_dim, config_.hidden,
                                 action_space_.is_discrete()
                                     ? action_space_.discrete().n()
                                     : action_space_.box().dim()),
                       nn::Activation::Tanh, init);
      }()),
      critic_([&] {
        Rng init = rng_.split(2);
        return nn::Mlp(net_sizes(obs_dim, config_.hidden, 1),
                       nn::Activation::Tanh, init);
      }()) {
  DARL_CHECK(obs_dim > 0, "obs_dim must be positive");
  if (action_space_.is_box()) {
    log_std_.assign(action_space_.box().dim(), config_.log_std_init);
    log_std_grad_.assign(log_std_.size(), 0.0);
  }
  auto actor_params = actor_.params();
  if (!log_std_.empty()) {
    actor_params.push_back(nn::ParamRef{&log_std_, &log_std_grad_, "log_std"});
  }
  actor_opt_ = std::make_unique<nn::Adam>(actor_params, config_.learning_rate);
  critic_opt_ = std::make_unique<nn::Adam>(critic_.params(), config_.learning_rate);
}

std::unique_ptr<RolloutActor> ImpalaAlgorithm::make_actor() const {
  // Same head and action encoding as PPO, so the same actor.
  return make_ppo_actor(actor_, log_std_, action_space_);
}

Vec ImpalaAlgorithm::policy_params() const {
  Vec flat = actor_.get_flat_params();
  flat.insert(flat.end(), log_std_.begin(), log_std_.end());
  return flat;
}

std::size_t ImpalaAlgorithm::params_bytes() const {
  return (actor_.param_count() + log_std_.size()) * sizeof(double);
}

std::size_t ImpalaAlgorithm::transition_bytes() const {
  return (2 * obs_dim_ + action_space_.action_dim() + 4) * sizeof(double);
}

double ImpalaAlgorithm::value(const Vec& obs) const {
  return critic_.evaluate(obs)[0];
}

TrainStats ImpalaAlgorithm::train(const std::vector<WorkerBatch>& batches) {
  TrainStats stats;

  // Single pass over every stream: compute V-trace targets with the
  // current networks, then accumulate one policy and one value gradient.
  actor_.zero_grad();
  std::fill(log_std_grad_.begin(), log_std_grad_.end(), 0.0);
  critic_.zero_grad();

  std::size_t total = 0;
  for (const auto& b : batches) total += b.transitions.size();
  if (total == 0) return stats;
  const double scale = 1.0 / static_cast<double>(total);

  double policy_loss = 0.0, value_loss = 0.0, entropy_sum = 0.0;
  double value_evals = 0.0;

  for (const auto& batch : batches) {
    const auto& stream = batch.transitions;
    if (stream.empty()) continue;

    const std::size_t n = stream.size();
    std::vector<double> values(n);
    std::vector<double> boots(n);
    std::vector<double> log_ratio(n);
    std::vector<double> logp_new(n);

    // V-trace inputs via batched evaluation: one critic pass over the
    // stream, one over the bootstrap rows, one actor pass for the current
    // log-probs. Bitwise identical to the old per-sample loop.
    st_obs_.reshape(n, obs_dim_);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(stream[i].obs.begin(), stream[i].obs.end(), st_obs_.row(i));
    }
    {
      const Matrix& v = critic_.evaluate_batch(st_obs_);
      for (std::size_t i = 0; i < n; ++i) values[i] = v(i, 0);
    }
    boot_idx_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      value_evals += 1.0;
      boots[i] = 0.0;  // unused mid-stream
      if (i + 1 == n || stream[i].done()) {
        if (!stream[i].terminated) boot_idx_.push_back(i);
        value_evals += 1.0;
      }
    }
    if (!boot_idx_.empty()) {
      st_boot_obs_.reshape(boot_idx_.size(), obs_dim_);
      for (std::size_t k = 0; k < boot_idx_.size(); ++k) {
        const Vec& nobs = stream[boot_idx_[k]].next_obs;
        std::copy(nobs.begin(), nobs.end(), st_boot_obs_.row(k));
      }
      const Matrix& v = critic_.evaluate_batch(st_boot_obs_);
      for (std::size_t k = 0; k < boot_idx_.size(); ++k)
        boots[boot_idx_[k]] = v(k, 0);
    }
    const std::size_t head_dim = actor_.output_dim();
    {
      const Matrix& heads = actor_.evaluate_batch(st_obs_);
      for (std::size_t i = 0; i < n; ++i) {
        head_scratch_.assign(heads.row(i), heads.row(i) + head_dim);
        if (action_space_.is_discrete()) {
          const std::size_t a =
              action_space_.discrete().decode(stream[i].action);
          logp_new[i] = nn::Categorical::log_prob(head_scratch_, a);
        } else {
          logp_new[i] = nn::DiagGaussian::log_prob(head_scratch_, log_std_,
                                                   stream[i].action);
        }
        log_ratio[i] = logp_new[i] - stream[i].log_prob;
      }
    }

    const VtraceResult vt =
        compute_vtrace(stream, log_ratio, values, boots, config_.gamma,
                       config_.rho_clip, config_.c_clip);

    // One actor and one critic forward/backward batch per stream; gradients
    // keep accumulating across streams exactly as the per-sample calls did
    // (gemm seeds each element from the existing gradient value).
    const Matrix& heads = actor_.forward_batch(st_obs_);
    const Matrix& vals = critic_.forward_batch(st_obs_);
    st_dhead_.reshape(n, head_dim);
    st_dv_.reshape(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const Transition& tr = stream[i];
      // Policy gradient: -pg_adv * grad logp - entropy bonus.
      head_scratch_.assign(heads.row(i), heads.row(i) + head_dim);
      double* d_head = st_dhead_.row(i);
      if (action_space_.is_discrete()) {
        const std::size_t a = action_space_.discrete().decode(tr.action);
        const Vec g_logp = nn::Categorical::log_prob_grad(head_scratch_, a);
        const Vec g_ent = nn::Categorical::entropy_grad(head_scratch_);
        entropy_sum += nn::Categorical::entropy(head_scratch_);
        for (std::size_t j = 0; j < head_dim; ++j) {
          d_head[j] = scale * (-vt.pg_adv[i] * g_logp[j] -
                               config_.entropy_coef * g_ent[j]);
        }
      } else {
        nn::DiagGaussian::log_prob_grad(head_scratch_, log_std_, tr.action,
                                        d_mean_, d_log_std_);
        entropy_sum += nn::DiagGaussian::entropy(log_std_);
        for (std::size_t j = 0; j < head_dim; ++j) {
          d_head[j] = scale * -vt.pg_adv[i] * d_mean_[j];
          log_std_grad_[j] += scale * (-vt.pg_adv[i] * d_log_std_[j] -
                                       config_.entropy_coef);
        }
      }
      policy_loss += -vt.pg_adv[i] * logp_new[i];

      // Value regression toward vs.
      const double verr = vals(i, 0) - vt.vs[i];
      value_loss += 0.5 * verr * verr;
      st_dv_.row(i)[0] = scale * config_.value_coef * verr;
    }
    actor_.backward_batch(st_dhead_);
    critic_.backward_batch(st_dv_);
  }

  auto actor_params = actor_.params();
  if (!log_std_.empty()) {
    actor_params.push_back(nn::ParamRef{&log_std_, &log_std_grad_, "log_std"});
  }
  nn::clip_grad_norm(actor_params, config_.max_grad_norm);
  nn::clip_grad_norm(critic_.params(), config_.max_grad_norm);
  actor_opt_->step();
  critic_opt_->step();

  stats.samples = total;
  stats.gradient_steps = 1;
  stats.policy_loss = policy_loss / static_cast<double>(total);
  stats.value_loss = value_loss / static_cast<double>(total);
  stats.entropy = entropy_sum / static_cast<double>(total);
  const double af = actor_.flops_per_forward();
  const double cf = critic_.flops_per_forward();
  // Per sample: one actor eval + one actor fwd+bwd + one critic eval for
  // targets + one critic fwd+bwd.
  stats.train_cost_mflop =
      (value_evals * cf + static_cast<double>(total) * (4.0 * af + 3.0 * cf)) /
      1e6;
  return stats;
}

}  // namespace darl::rl
