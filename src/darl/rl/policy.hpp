// darl/rl/policy.hpp
//
// The one definition of each learner's policy network that training,
// acting and serving share: its shape (layer sizes, hidden activation,
// head kind, trailing non-network parameters) and the greedy decode that
// turns one head row into an action. PPO, IMPALA and SAC build their
// actor networks from policy_shape(); every actor's act_greedy() and the
// serving layer (serve::DirectPolicy, serve::BatchScheduler) decode
// through greedy_action(), so a served action is the trained actor's
// greedy action bit for bit.

#pragma once

#include <cstddef>
#include <vector>

#include "darl/env/space.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/rl/types.hpp"

namespace darl::rl {

/// How a policy network's output row (its head) is read.
enum class PolicyHead {
  /// Logits over the discrete actions (PPO, IMPALA).
  Categorical,
  /// Gaussian mean over a box; the state-independent log-std is a
  /// parameter tail beside the network, not a network output (PPO,
  /// IMPALA).
  Gaussian,
  /// Gaussian mean ‖ raw log-std, the mean tanh-squashed into a box (SAC).
  SquashedGaussian,
};

/// Everything about one learner's policy network.
struct PolicyShape {
  std::vector<std::size_t> sizes;  ///< Mlp layer sizes {obs, hidden..., head}
  nn::Activation activation = nn::Activation::Tanh;
  PolicyHead head = PolicyHead::Categorical;
  /// Values after the network parameters in a policy snapshot (the
  /// Gaussian log-std); greedy decoding never reads them.
  std::size_t tail = 0;
};

/// Mlp layer sizes {in, hidden..., out}.
std::vector<std::size_t> mlp_sizes(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out);

/// Width of the head row `head` reads over `space`. Throws InvalidArgument
/// when the head cannot act in that space (a categorical head over a box,
/// a Gaussian one over a discrete set).
std::size_t head_width(PolicyHead head, const env::ActionSpace& space);

/// The policy network `kind` trains for an observation/action interface.
/// Throws InvalidArgument when `kind` cannot act in `space` (SAC needs a
/// box).
PolicyShape policy_shape(AlgoKind kind, std::size_t obs_dim,
                         const env::ActionSpace& space,
                         const std::vector<std::size_t>& hidden);

/// Greedy action for one head row (head_width(head, space) values): the
/// first most probable category, the box-clipped mean, or the squashed
/// mean scaled into the box. Writes space.action_dim() values (env
/// encoding) to `out`; no allocation, no rng.
void greedy_action(PolicyHead head, const env::ActionSpace& space,
                   const double* row, double* out);

}  // namespace darl::rl
