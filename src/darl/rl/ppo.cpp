#include "darl/rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/obs/trace.hpp"
#include "darl/rl/gae.hpp"

namespace darl::rl {

PpoAlgorithm::PpoAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
                           PpoConfig config, std::uint64_t seed)
    : ActorCritic(AlgoKind::PPO, obs_dim, std::move(action_space),
                  config.hidden, config.learning_rate, config.log_std_init,
                  seed),
      config_(std::move(config)) {
  DARL_CHECK(config_.epochs > 0 && config_.minibatch_size > 0,
             "epochs and minibatch_size must be positive");
  DARL_CHECK(config_.clip_epsilon > 0.0 && config_.clip_epsilon < 1.0,
             "clip_epsilon out of (0,1)");
}

TrainStats PpoAlgorithm::train(const std::vector<WorkerBatch>& batches) {
  TrainStats stats;

  // 1) GAE per worker stream with the current critic, then normalised
  // advantages.
  std::vector<Sample> samples;
  double value_evals = 0.0;
  {
    DARL_SPAN("rl.ppo.advantages");
    for (const auto& batch : batches) {
      const auto& stream = batch.transitions;
      if (stream.empty()) continue;
      std::vector<double> values(stream.size());
      std::vector<double> boots(stream.size());
      value_evals += critic_pass(stream, values, boots);

      const GaeResult gae = compute_gae(stream, values, boots, config_.gamma,
                                        config_.gae_lambda);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        samples.push_back(Sample{&stream[i], gae.advantages[i], gae.returns[i]});
      }
    }
    if (samples.empty()) return stats;

    std::vector<double> advs(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) advs[i] = samples[i].advantage;
    normalize_advantages(advs);
    for (std::size_t i = 0; i < samples.size(); ++i) samples[i].advantage = advs[i];
  }
  stats.samples = samples.size();

  // 2) Minibatch epochs.
  double policy_loss_sum = 0.0, value_loss_sum = 0.0, entropy_sum = 0.0;
  std::size_t loss_count = 0;
  bool stop = false;
  const double lo = 1.0 - config_.clip_epsilon;
  const double hi = 1.0 + config_.clip_epsilon;

  for (std::size_t epoch = 0; epoch < config_.epochs && !stop; ++epoch) {
    DARL_SPAN_V("rl.ppo.epoch", "epoch", epoch);
    const auto perm = rng_.permutation(samples.size());
    for (std::size_t start = 0; start < perm.size() && !stop;
         start += config_.minibatch_size) {
      const std::size_t end = std::min(start + config_.minibatch_size, perm.size());
      const double scale = 1.0 / static_cast<double>(end - start);

      zero_grad();

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
      mb_dhead_.reshape(mb, actor_.output_dim());
      mb_dv_.reshape(mb, 1);

      double mb_kl = 0.0;
      for (std::size_t k = 0; k < mb; ++k) {
        const Sample& s = samples[perm[start + k]];
        const Transition& tr = *s.t;
        const double ratio_log = log_prob(heads.row(k), tr.action) - tr.log_prob;
        const double ratio = math::exp(ratio_log);
        const double unclipped = ratio * s.advantage;
        const double clipped = std::clamp(ratio, lo, hi) * s.advantage;
        // Gradient of -min(unclipped, clipped) w.r.t. logp flows through
        // the ratio only when the active branch is differentiable in it.
        double d_logp = 0.0;
        if (unclipped <= clipped || (ratio >= lo && ratio <= hi)) {
          d_logp = -s.advantage * ratio;
        }
        entropy_sum += policy_grad(heads.row(k), tr.action, d_logp,
                                   config_.entropy_coef, scale,
                                   mb_dhead_.row(k));
        mb_kl += (ratio - 1.0) - ratio_log;  // k3 estimator
        policy_loss_sum += -std::min(unclipped, clipped);

        // Critic target on the same minibatch.
        const double v = vals(k, 0);
        const double verr = v - s.ret;
        value_loss_sum += 0.5 * verr * verr;
        mb_dv_.row(k)[0] = scale * config_.value_coef * verr;
        ++loss_count;
      }
      actor_.backward_batch(mb_dhead_, nn::Grad::Params);
      critic_.backward_batch(mb_dv_, nn::Grad::Params);
      clip_and_step(config_.max_grad_norm);
      ++stats.gradient_steps;

      mb_kl /= static_cast<double>(end - start);
      if (config_.target_kl > 0.0 && mb_kl > 1.5 * config_.target_kl) {
        stop = true;  // early stop as in Stable Baselines
      }
    }
  }

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
