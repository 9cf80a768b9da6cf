// darl/rl/types.hpp
//
// Shared data types of the RL substrate: transitions collected by rollout
// workers, per-worker batches handed to the learner, and training
// statistics (including the simulated-compute accounting the cluster model
// consumes).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "darl/linalg/vec.hpp"

namespace darl::rl {

/// One environment transition as recorded by a rollout worker.
struct Transition {
  Vec obs;
  Vec action;      ///< env-encoded action (see env::ActionSpace)
  double reward = 0.0;
  Vec next_obs;
  bool terminated = false;  ///< true terminal state (no bootstrap)
  bool truncated = false;   ///< episode cut (bootstrap from next_obs)
  double log_prob = 0.0;    ///< log pi(action|obs) under the *acting* policy

  bool done() const { return terminated || truncated; }
};

/// The transitions one worker collected during one iteration.
struct WorkerBatch {
  std::size_t worker_id = 0;
  std::vector<Transition> transitions;
};

/// Output of a single policy inference during collection.
struct ActOutput {
  Vec action;
  double log_prob = 0.0;
};

/// Statistics of one learner update cycle.
struct TrainStats {
  std::size_t samples = 0;        ///< transitions consumed
  std::size_t gradient_steps = 0; ///< optimizer steps performed
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  /// Simulated compute cost of the update in MFLOP-equivalents, charged to
  /// the learner node by the cluster model.
  double train_cost_mflop = 0.0;
};

/// The learning algorithms: PPO and SAC are the two the paper studies
/// (§V-b); IMPALA/V-trace is provided as the §II-A architecture extension.
enum class AlgoKind { PPO, SAC, IMPALA };

/// Name for reports, checkpoints and the wire ("PPO", "SAC", "IMPALA").
const char* algo_name(AlgoKind kind);

/// The AlgoKind algo_name() gives `name`; nullopt for any other string.
std::optional<AlgoKind> algo_from_name(std::string_view name);

}  // namespace darl::rl
