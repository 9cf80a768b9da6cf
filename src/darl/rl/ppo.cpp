#include "darl/rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/error.hpp"
#include "darl/nn/distributions.hpp"
#include "darl/rl/gae.hpp"

namespace darl::rl {
namespace {

std::vector<std::size_t> actor_sizes(std::size_t obs_dim,
                                     const env::ActionSpace& space,
                                     const std::vector<std::size_t>& hidden) {
  std::vector<std::size_t> sizes;
  sizes.push_back(obs_dim);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(space.is_discrete() ? space.discrete().n() : space.box().dim());
  return sizes;
}

std::vector<std::size_t> critic_sizes(std::size_t obs_dim,
                                      const std::vector<std::size_t>& hidden) {
  std::vector<std::size_t> sizes;
  sizes.push_back(obs_dim);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(1);
  return sizes;
}

/// Inference-only policy used by PPO's and IMPALA's rollout workers.
class PpoActor final : public RolloutActor {
 public:
  PpoActor(const nn::Mlp& actor, Vec log_std, env::ActionSpace space)
      : net_(actor),  // copy
        log_std_(std::move(log_std)),
        space_(std::move(space)) {}

  void set_params(const Vec& flat) override {
    const std::size_t net_n = net_.param_count();
    DARL_CHECK(flat.size() == net_n + log_std_.size(),
               "PPO actor snapshot has " << flat.size() << " values, expected "
                                         << net_n + log_std_.size());
    Vec net_part(flat.begin(), flat.begin() + static_cast<std::ptrdiff_t>(net_n));
    net_.set_flat_params(net_part);
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(net_n), flat.end(),
              log_std_.begin());
  }

  ActOutput act(const Vec& obs, Rng& rng) override {
    const Vec head = net_.evaluate(obs);
    ActOutput out;
    if (space_.is_discrete()) {
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
    if (space_.is_discrete()) {
      const Vec p = nn::Categorical::softmax(head);
      const auto it = std::max_element(p.begin(), p.end());
      return space_.discrete().encode(
          static_cast<std::size_t>(it - p.begin()));
    }
    return space_.box().clip(head);
  }

  double inference_cost_mflop() const override {
    return net_.flops_per_forward() / 1e6;
  }

 private:
  nn::Mlp net_;
  Vec log_std_;
  env::ActionSpace space_;
};

}  // namespace

PpoAlgorithm::PpoAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
                           PpoConfig config, std::uint64_t seed)
    : obs_dim_(obs_dim),
      action_space_(std::move(action_space)),
      config_(std::move(config)),
      rng_(seed),
      actor_([&] {
        Rng init = rng_.split(1);
        return nn::Mlp(actor_sizes(obs_dim, action_space_, config_.hidden),
                       nn::Activation::Tanh, init);
      }()),
      critic_([&] {
        Rng init = rng_.split(2);
        return nn::Mlp(critic_sizes(obs_dim, config_.hidden),
                       nn::Activation::Tanh, init);
      }()) {
  DARL_CHECK(obs_dim > 0, "obs_dim must be positive");
  DARL_CHECK(config_.epochs > 0 && config_.minibatch_size > 0,
             "epochs and minibatch_size must be positive");
  DARL_CHECK(config_.clip_epsilon > 0.0 && config_.clip_epsilon < 1.0,
             "clip_epsilon out of (0,1)");

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

std::unique_ptr<RolloutActor> make_ppo_actor(const nn::Mlp& actor,
                                             Vec log_std,
                                             env::ActionSpace space) {
  return std::make_unique<PpoActor>(actor, std::move(log_std),
                                    std::move(space));
}

std::unique_ptr<RolloutActor> PpoAlgorithm::make_actor() const {
  return make_ppo_actor(actor_, log_std_, action_space_);
}

Vec PpoAlgorithm::policy_params() const {
  Vec flat = actor_.get_flat_params();
  flat.insert(flat.end(), log_std_.begin(), log_std_.end());
  return flat;
}

std::size_t PpoAlgorithm::params_bytes() const {
  return (actor_.param_count() + log_std_.size()) * sizeof(double);
}

std::size_t PpoAlgorithm::transition_bytes() const {
  // obs + next_obs + action + scalars, in doubles.
  return (2 * obs_dim_ + action_space_.action_dim() + 4) * sizeof(double);
}

double PpoAlgorithm::value(const Vec& obs) const {
  return critic_.evaluate(obs)[0];
}

TrainStats PpoAlgorithm::train(const std::vector<WorkerBatch>& batches) {
  TrainStats stats;

  // 1) GAE per worker stream with the current critic, evaluated as one
  // batched pass per stream (bitwise identical to the per-sample loop).
  std::vector<Sample> samples;
  double value_evals = 0.0;
  for (const auto& batch : batches) {
    const auto& stream = batch.transitions;
    if (stream.empty()) continue;
    std::vector<double> values(stream.size());
    std::vector<double> boots(stream.size());
    gae_obs_.reshape(stream.size(), obs_dim_);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      std::copy(stream[i].obs.begin(), stream[i].obs.end(), gae_obs_.row(i));
    }
    {
      const Matrix& v = critic_.evaluate_batch(gae_obs_);
      for (std::size_t i = 0; i < stream.size(); ++i) values[i] = v(i, 0);
    }
    // V(next_obs) is only read at stream ends and truncations; computing
    // it from values[i+1] when possible halves the critic evaluations.
    boot_idx_.clear();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      boots[i] = 0.0;
      if (i + 1 < stream.size() && !stream[i].done()) continue;
      if (!stream[i].terminated) boot_idx_.push_back(i);
      value_evals += 1.0;
    }
    if (!boot_idx_.empty()) {
      gae_obs_.reshape(boot_idx_.size(), obs_dim_);
      for (std::size_t k = 0; k < boot_idx_.size(); ++k) {
        const Vec& nobs = stream[boot_idx_[k]].next_obs;
        std::copy(nobs.begin(), nobs.end(), gae_obs_.row(k));
      }
      const Matrix& v = critic_.evaluate_batch(gae_obs_);
      for (std::size_t k = 0; k < boot_idx_.size(); ++k)
        boots[boot_idx_[k]] = v(k, 0);
    }
    for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
      if (!stream[i].done()) boots[i] = values[i + 1];
    }
    value_evals += static_cast<double>(stream.size());

    const GaeResult gae = compute_gae(stream, values, boots, config_.gamma,
                                      config_.gae_lambda);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      samples.push_back(Sample{&stream[i], gae.advantages[i], gae.returns[i]});
    }
  }
  if (samples.empty()) return stats;
  stats.samples = samples.size();

  std::vector<double> advs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) advs[i] = samples[i].advantage;
  normalize_advantages(advs);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i].advantage = advs[i];

  // 2) Minibatch epochs.
  double kl_sum = 0.0;
  std::size_t kl_count = 0;
  double policy_loss_sum = 0.0, value_loss_sum = 0.0, entropy_sum = 0.0;
  std::size_t loss_count = 0;
  bool stop = false;

  for (std::size_t epoch = 0; epoch < config_.epochs && !stop; ++epoch) {
    const auto perm = rng_.permutation(samples.size());
    for (std::size_t start = 0; start < perm.size() && !stop;
         start += config_.minibatch_size) {
      const std::size_t end = std::min(start + config_.minibatch_size, perm.size());
      const double scale = 1.0 / static_cast<double>(end - start);

      actor_.zero_grad();
      std::fill(log_std_grad_.begin(), log_std_grad_.end(), 0.0);
      critic_.zero_grad();

      // Assemble the minibatch observations once and run both networks
      // through the batched kernels; the per-sample loop below only does
      // the distribution math and fills the output-gradient rows. All
      // scalar accumulators keep their ascending-sample summation order,
      // so the stats match the old per-sample loop bit for bit.
      const std::size_t mb = end - start;
      mb_obs_.reshape(mb, obs_dim_);
      for (std::size_t k = 0; k < mb; ++k) {
        const Vec& obs = samples[perm[start + k]].t->obs;
        std::copy(obs.begin(), obs.end(), mb_obs_.row(k));
      }
      const Matrix& heads = actor_.forward_batch(mb_obs_);
      const Matrix& vals = critic_.forward_batch(mb_obs_);
      const std::size_t head_dim = actor_.output_dim();
      mb_dhead_.reshape(mb, head_dim);
      mb_dv_.reshape(mb, 1);

      double mb_kl = 0.0;
      for (std::size_t k = 0; k < mb; ++k) {
        const Sample& s = samples[perm[start + k]];
        const Transition& tr = *s.t;
        head_scratch_.assign(heads.row(k), heads.row(k) + head_dim);
        double* d_head = mb_dhead_.row(k);
        double log_prob = 0.0;
        double entropy = 0.0;

        const double lo = 1.0 - config_.clip_epsilon;
        const double hi = 1.0 + config_.clip_epsilon;
        if (action_space_.is_discrete()) {
          const std::size_t a = action_space_.discrete().decode(tr.action);
          log_prob = nn::Categorical::log_prob(head_scratch_, a);
          entropy = nn::Categorical::entropy(head_scratch_);

          const double ratio = std::exp(log_prob - tr.log_prob);
          const double unclipped = ratio * s.advantage;
          const double clipped = std::clamp(ratio, lo, hi) * s.advantage;
          // Gradient of -min(unclipped, clipped) w.r.t. logp flows through
          // the ratio only when the active branch is differentiable in it.
          double d_logp = 0.0;
          if (unclipped <= clipped || (ratio >= lo && ratio <= hi)) {
            d_logp = -s.advantage * ratio;
          }
          const Vec g_logp = nn::Categorical::log_prob_grad(head_scratch_, a);
          const Vec g_ent = nn::Categorical::entropy_grad(head_scratch_);
          for (std::size_t i = 0; i < head_dim; ++i) {
            d_head[i] =
                scale * (d_logp * g_logp[i] - config_.entropy_coef * g_ent[i]);
          }
        } else {
          log_prob = nn::DiagGaussian::log_prob(head_scratch_, log_std_, tr.action);
          entropy = nn::DiagGaussian::entropy(log_std_);

          const double ratio = std::exp(log_prob - tr.log_prob);
          const double unclipped = ratio * s.advantage;
          const double clipped = std::clamp(ratio, lo, hi) * s.advantage;
          double d_logp = 0.0;
          if (unclipped <= clipped || (ratio >= lo && ratio <= hi)) {
            d_logp = -s.advantage * ratio;
          }
          nn::DiagGaussian::log_prob_grad(head_scratch_, log_std_, tr.action,
                                          d_mean_, d_log_std_);
          for (std::size_t i = 0; i < head_dim; ++i) {
            d_head[i] = scale * d_logp * d_mean_[i];
            // Entropy of a Gaussian is independent of the mean; bonus flows
            // into log_std only (d entropy / d log_std = 1).
            log_std_grad_[i] +=
                scale * (d_logp * d_log_std_[i] - config_.entropy_coef);
          }
        }

        const double ratio_log = log_prob - tr.log_prob;
        mb_kl += (std::exp(ratio_log) - 1.0) - ratio_log;  // k3 estimator
        const double ratio = std::exp(ratio_log);
        const double unclipped = ratio * s.advantage;
        const double clipped = std::clamp(ratio, lo, hi) * s.advantage;
        policy_loss_sum += -std::min(unclipped, clipped);
        entropy_sum += entropy;

        // Critic target on the same minibatch.
        const double v = vals(k, 0);
        const double verr = v - s.ret;
        value_loss_sum += 0.5 * verr * verr;
        mb_dv_.row(k)[0] = scale * config_.value_coef * verr;
        ++loss_count;
      }
      actor_.backward_batch(mb_dhead_);
      critic_.backward_batch(mb_dv_);

      auto actor_params = actor_.params();
      if (!log_std_.empty())
        actor_params.push_back(nn::ParamRef{&log_std_, &log_std_grad_, "log_std"});
      nn::clip_grad_norm(actor_params, config_.max_grad_norm);
      nn::clip_grad_norm(critic_.params(), config_.max_grad_norm);
      actor_opt_->step();
      critic_opt_->step();
      ++stats.gradient_steps;

      mb_kl /= static_cast<double>(end - start);
      kl_sum += mb_kl;
      ++kl_count;
      if (config_.target_kl > 0.0 && mb_kl > 1.5 * config_.target_kl) {
        stop = true;  // early stop as in Stable Baselines
      }
    }
  }

  last_kl_ = kl_count ? kl_sum / static_cast<double>(kl_count) : 0.0;
  if (loss_count > 0) {
    stats.policy_loss = policy_loss_sum / static_cast<double>(loss_count);
    stats.value_loss = value_loss_sum / static_cast<double>(loss_count);
    stats.entropy = entropy_sum / static_cast<double>(loss_count);
  }

  // 3) Simulated compute cost: GAE value evaluations plus one forward and
  // one backward (2x forward) per sample visit on both networks.
  const double af = actor_.flops_per_forward();
  const double cf = critic_.flops_per_forward();
  const double visits = static_cast<double>(loss_count);
  stats.train_cost_mflop =
      (value_evals * cf + visits * 3.0 * (af + cf)) / 1e6;
  return stats;
}

}  // namespace darl::rl
