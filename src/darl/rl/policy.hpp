// darl/rl/policy.hpp
//
// The one definition of each learner's policy network that training,
// acting and serving share: its shape (layer sizes, hidden activation,
// head kind, trailing non-network parameters) and each head's math.
// rl::Algorithm builds every actor network from policy_shape();
// RolloutActor samples through sample_action(), scored by the same
// head_log_prob() PPO and IMPALA train on; the serving layer
// (serve::DirectPolicy, serve::BatchScheduler) decodes through
// greedy_action() as act_greedy() does, so a served action is the trained
// actor's greedy action bit for bit.

#pragma once

#include <cstddef>
#include <vector>

#include "darl/common/rng.hpp"
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

/// The squashed head's raw log-std is softly clamped into
/// [kSquashedLogStdMin, kSquashedLogStdMax] through tanh.
inline constexpr double kSquashedLogStdMin = -5.0;
inline constexpr double kSquashedLogStdMax = 2.0;

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

/// log pi(action | row) of an env-encoded action under a categorical or
/// Gaussian head; `tail` is the Gaussian log-std (empty for a categorical
/// head). Throws InvalidArgument for the squashed head, whose density
/// lives on its pre-tanh draw (nn::SquashedGaussian).
double head_log_prob(PolicyHead head, const env::ActionSpace& space,
                     const Vec& row, const Vec& tail, const Vec& action);

/// One stochastic action for a head row: a category, a Gaussian draw
/// clipped into the box, or a squashed draw mapped into the box (env
/// encoding). A categorical or Gaussian action carries head_log_prob() of
/// the action returned; a squashed one the log-density of its draw.
ActOutput sample_action(PolicyHead head, const env::ActionSpace& space,
                        const Vec& row, const Vec& tail, Rng& rng);

/// Split a squashed head row (2 * dim values) into its mean and its
/// softly clamped log-std.
void split_squashed(const double* row, std::size_t dim, Vec& mean,
                    Vec& log_std);

/// Derivative of split_squashed()'s clamped log-std with respect to the
/// raw value `raw` it was read from.
double squashed_log_std_slope(double raw);

/// Affine map of a squashed action in [-1, 1]^dim into the box.
void squash_to_box(const env::BoxSpace& box, const double* squashed,
                   double* out);

/// Its inverse for an action of the box, held inside (-1, 1), the range
/// of a squashed draw (0 on a zero-width dimension).
void box_to_squash(const env::BoxSpace& box, const double* action,
                   double* out);

}  // namespace darl::rl
