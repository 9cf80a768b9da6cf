// darl/rl/sac.hpp
//
// Soft Actor-Critic (Haarnoja et al. 2018), the second algorithm of the
// paper's study: off-policy maximum-entropy RL with twin Q critics, target
// networks, a tanh-squashed Gaussian policy and automatic entropy
// temperature tuning. Continuous action spaces only (the airdrop simulator
// exposes a continuous steering mode for exactly this reason).

#pragma once

#include <memory>

#include "darl/nn/distributions.hpp"
#include "darl/rl/algorithm.hpp"
#include "darl/rl/replay_buffer.hpp"

namespace darl::rl {

/// SAC hyperparameters (defaults follow the original paper, scaled down
/// for the small networks and budgets used here).
struct SacConfig {
  std::vector<std::size_t> hidden = {64, 64};
  double learning_rate = 3e-4;
  double gamma = 0.99;
  double tau = 0.005;             ///< polyak averaging rate for targets
  std::size_t batch_size = 64;
  std::size_t replay_capacity = 200000;
  std::size_t warmup_steps = 256; ///< uniform-random acting before learning
  /// Gradient updates per collected environment step (0.5 = one update
  /// every two steps).
  double updates_per_step = 0.5;
  /// Entropy target for temperature auto-tuning; 0 means "-action_dim".
  double target_entropy = 0.0;
  double init_alpha = 0.2;
  double max_grad_norm = 10.0;
};

/// SAC learner. See Algorithm for the learner/actor role split and the
/// policy.
class SacAlgorithm final : public Algorithm {
 public:
  /// Requires a continuous (Box) action space.
  SacAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
               SacConfig config, std::uint64_t seed);

  TrainStats train(const std::vector<WorkerBatch>& batches) override;

  double alpha() const;
  std::size_t replay_size() const { return replay_.size(); }

 private:
  void polyak_update();
  void one_update(TrainStats& stats);

  std::size_t act_dim_;
  SacConfig config_;

  nn::Mlp q1_, q2_;  // [obs, squashed action] -> scalar
  nn::Mlp q1_target_, q2_target_;
  std::vector<nn::ParamRef> q1_params_, q2_params_;
  std::vector<nn::ParamRef> q1_target_params_, q2_target_params_;
  Vec log_alpha_, log_alpha_grad_;
  std::unique_ptr<nn::Adam> q1_opt_, q2_opt_, alpha_opt_;
  ReplayBuffer replay_;
  double update_carry_ = 0.0;
  double target_entropy_ = 0.0;

  // Reusable staging: the sampled batch, its critic targets, observation /
  // [obs, action] rows, output-gradient rows, and per-sample draw storage.
  // Capacity settles at the configured batch size, after which
  // one_update() stops allocating.
  std::vector<const Transition*> batch_;
  std::vector<double> targets_;
  Matrix mb_obs_, mb_qin_, mb_d1_, mb_d2_, mb_dhead_, mb_ga_;
  std::vector<std::size_t> nonterm_idx_;
  std::vector<nn::SquashedGaussian::Draw> draws_;
  std::vector<Vec> means_, log_stds_;
  Vec d_mean_, d_log_std_, grad_action_;
};

}  // namespace darl::rl
