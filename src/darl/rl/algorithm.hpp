// darl/rl/algorithm.hpp
//
// The learner/actor split every distributed-RL architecture in the paper is
// built from (A3C/IMPALA/Ape-X separate acting from learning; RLlib,
// Stable Baselines and TF-Agents are orchestrations of exactly these two
// roles). A framework backend owns the orchestration: it creates
// RolloutActors for its workers, decides when and with which parameter
// snapshot they act (fresh or stale), and feeds collected WorkerBatches to
// Algorithm::train().

#pragma once

#include <memory>
#include <vector>

#include "darl/common/rng.hpp"
#include "darl/env/space.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"
#include "darl/rl/policy.hpp"
#include "darl/rl/types.hpp"

namespace darl::rl {

/// The inference-only copy of a learner's policy one rollout worker acts
/// with: the policy network, its parameter tail and the action space, read
/// through the shape's head (rl/policy). Not thread-safe internally; each
/// worker owns one instance and its own Rng.
class RolloutActor {
 public:
  RolloutActor(const PolicyShape& shape, const nn::Mlp& net, Vec tail,
               env::ActionSpace space);

  /// Replace the actor's parameters with a snapshot obtained from
  /// Algorithm::policy_params().
  void set_params(const Vec& flat);

  /// Sample an action (env encoding) and its log-probability.
  ActOutput act(const Vec& obs, Rng& rng);

  /// Deterministic (greedy/mode) action for evaluation.
  Vec act_greedy(const Vec& obs);

  /// Simulated inference cost for one act() in MFLOP-equivalents.
  double inference_cost_mflop() const;

 private:
  PolicyHead head_;
  nn::Mlp net_;
  Vec tail_;
  env::ActionSpace space_;
};

/// A learning algorithm (PPO, IMPALA or SAC): consumes worker batches,
/// updates its networks, and exports policy-parameter snapshots for the
/// actors. The policy is built the same way for every learner and lives
/// here; a derived learner adds its critics and its update.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  // The optimizers hold pointers into this object's parameters.
  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;

  AlgoKind kind() const { return kind_; }

  /// The policy network this learner trains.
  const PolicyShape& shape() const { return shape_; }

  /// Create an inference-only actor initialized with the current policy.
  std::unique_ptr<RolloutActor> make_actor() const;

  /// Snapshot of the current policy parameters (flat): the network's,
  /// then the tail.
  Vec policy_params() const;

  /// Size of one policy-parameter snapshot in bytes (network transfer
  /// accounting for multi-node deployments).
  std::size_t params_bytes() const;

  /// Approximate size of one serialized transition in bytes (sample
  /// transfer accounting).
  std::size_t transition_bytes() const;

  /// Consume one iteration's worth of collected experience and update.
  virtual TrainStats train(const std::vector<WorkerBatch>& batches) = 0;

 protected:
  /// Builds the policy network from policy_shape() with rng split 1, the
  /// Gaussian log-std tail at `log_std_init`, and one Adam optimizer over
  /// both.
  Algorithm(AlgoKind kind, std::size_t obs_dim, env::ActionSpace action_space,
            const std::vector<std::size_t>& hidden, double learning_rate,
            double log_std_init, std::uint64_t seed);

  // Initialized in declaration order: the shape sizes the actor.
  PolicyShape shape_;
  std::size_t obs_dim_;
  env::ActionSpace action_space_;
  Rng rng_;
  nn::Mlp actor_;
  Vec log_std_, log_std_grad_;  // Gaussian head only
  std::vector<nn::ParamRef> actor_params_;  // actor_ then log_std_
  std::unique_ptr<nn::Adam> actor_opt_;

 private:
  AlgoKind kind_;
};

}  // namespace darl::rl
