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

#include "darl/env/space.hpp"
#include "darl/rl/types.hpp"

namespace darl::rl {

/// A lightweight inference-only copy of the policy used by one rollout
/// worker. Not thread-safe internally; each worker owns one instance and
/// its own Rng.
class RolloutActor {
 public:
  virtual ~RolloutActor() = default;

  /// Replace the actor's parameters with a snapshot obtained from
  /// Algorithm::policy_params().
  virtual void set_params(const Vec& flat) = 0;

  /// Sample an action (env encoding) and its log-probability.
  virtual ActOutput act(const Vec& obs, Rng& rng) = 0;

  /// Deterministic (greedy/mode) action for evaluation.
  virtual Vec act_greedy(const Vec& obs) = 0;

  /// Simulated inference cost for one act() in MFLOP-equivalents.
  virtual double inference_cost_mflop() const = 0;
};

/// A learning algorithm (PPO or SAC): consumes worker batches, updates its
/// networks, and exports policy-parameter snapshots for the actors.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual AlgoKind kind() const = 0;

  /// Create an inference-only actor initialized with the current policy.
  virtual std::unique_ptr<RolloutActor> make_actor() const = 0;

  /// Snapshot of the current policy parameters (flat).
  virtual Vec policy_params() const = 0;

  /// Size of one policy-parameter snapshot in bytes (network transfer
  /// accounting for multi-node deployments).
  virtual std::size_t params_bytes() const = 0;

  /// Approximate size of one serialized transition in bytes (sample
  /// transfer accounting).
  virtual std::size_t transition_bytes() const = 0;

  /// Consume one iteration's worth of collected experience and update.
  virtual TrainStats train(const std::vector<WorkerBatch>& batches) = 0;
};

}  // namespace darl::rl
