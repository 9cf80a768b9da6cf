// darl/rl/ppo.hpp
//
// Proximal Policy Optimization (Schulman et al. 2017) with the clipped
// surrogate objective, GAE advantages, minibatch epochs, entropy bonus and
// optional KL early stopping — one of the two algorithms the paper studies.
// Supports discrete policies (categorical head — the airdrop steering
// choice) and continuous policies (diagonal Gaussian with a state-
// independent log-std parameter).

#pragma once

#include <vector>

#include "darl/rl/actor_critic.hpp"

namespace darl::rl {

/// PPO hyperparameters (defaults follow Stable-Baselines-style settings,
/// adjusted for the small networks used here).
struct PpoConfig {
  std::vector<std::size_t> hidden = {64, 64};
  double learning_rate = 3e-4;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip_epsilon = 0.2;
  std::size_t epochs = 8;
  std::size_t minibatch_size = 64;
  double entropy_coef = 3e-3;
  double value_coef = 0.5;       ///< scales the critic learning signal
  double max_grad_norm = 0.5;
  /// Stop the epoch loop when the approximate KL to the behaviour policy
  /// exceeds this (0 disables).
  double target_kl = 0.05;
  double log_std_init = -0.5;    ///< continuous head initial log-std
};

/// PPO learner. See ActorCritic for the shared networks and Algorithm for
/// the role split.
class PpoAlgorithm final : public ActorCritic {
 public:
  PpoAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
               PpoConfig config, std::uint64_t seed);

  TrainStats train(const std::vector<WorkerBatch>& batches) override;

 private:
  struct Sample {
    const Transition* t = nullptr;
    double advantage = 0.0;
    double ret = 0.0;
  };

  PpoConfig config_;

  // Reusable minibatch staging for the batched kernels. Capacity grows to
  // the largest minibatch seen, then train() runs allocation-free apart
  // from the sample index vectors.
  Matrix mb_obs_, mb_dhead_, mb_dv_;
};

}  // namespace darl::rl
