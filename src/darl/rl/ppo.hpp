// darl/rl/ppo.hpp
//
// Proximal Policy Optimization (Schulman et al. 2017) with the clipped
// surrogate objective, GAE advantages, minibatch epochs, entropy bonus and
// optional KL early stopping — one of the two algorithms the paper studies.
// Supports discrete policies (categorical head — the airdrop steering
// choice) and continuous policies (diagonal Gaussian with a state-
// independent log-std parameter).

#pragma once

#include <memory>
#include <optional>

#include "darl/common/rng.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"
#include "darl/rl/algorithm.hpp"

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

/// The inference-only policy PPO's and IMPALA's workers act with: `actor`
/// maps an observation to the policy head, categorical logits for a
/// discrete `space` or the Gaussian mean beside the state-independent
/// `log_std` for a box.
std::unique_ptr<RolloutActor> make_ppo_actor(const nn::Mlp& actor,
                                             Vec log_std,
                                             env::ActionSpace space);

/// PPO learner. See Algorithm for the role split.
class PpoAlgorithm final : public Algorithm {
 public:
  PpoAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
               PpoConfig config, std::uint64_t seed);

  AlgoKind kind() const override { return AlgoKind::PPO; }
  std::unique_ptr<RolloutActor> make_actor() const override;
  Vec policy_params() const override;
  std::size_t params_bytes() const override;
  std::size_t transition_bytes() const override;
  TrainStats train(const std::vector<WorkerBatch>& batches) override;

  const PpoConfig& config() const { return config_; }
  const env::ActionSpace& action_space() const { return action_space_; }

  /// Critic value estimate for an observation (exposed for tests).
  double value(const Vec& obs) const;

  /// Mean approximate KL of the last train() call (diagnostics).
  double last_approx_kl() const { return last_kl_; }

 private:
  struct Sample {
    const Transition* t = nullptr;
    double advantage = 0.0;
    double ret = 0.0;
  };

  std::size_t obs_dim_;
  env::ActionSpace action_space_;
  PpoConfig config_;
  Rng rng_;

  nn::Mlp actor_;
  Vec log_std_;       // continuous head only
  Vec log_std_grad_;
  nn::Mlp critic_;
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;
  double last_kl_ = 0.0;

  // Reusable staging buffers for the batched kernels. Capacity grows to
  // the largest stream / minibatch seen, then train() runs allocation-free
  // apart from the sample index vectors.
  Matrix gae_obs_;
  Matrix mb_obs_, mb_dhead_, mb_dv_;
  std::vector<std::size_t> boot_idx_;
  Vec head_scratch_, d_mean_, d_log_std_;
};

}  // namespace darl::rl
