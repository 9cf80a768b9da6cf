// darl/rl/actor_critic.hpp
//
// The learner PPO and IMPALA share: beside the policy every Algorithm
// owns (categorical logits, or a Gaussian mean with a state-independent
// log-std), a tanh state-value critic of the same hidden shape with its
// own Adam optimizer, and the per-sample pieces of a policy-gradient step.
// Each derived learner keeps only its own loss: PPO's clipped surrogate
// over minibatch epochs, IMPALA's V-trace single pass.

#pragma once

#include <memory>
#include <vector>

#include "darl/rl/algorithm.hpp"

namespace darl::rl {

/// Policy-gradient learner with a state-value critic. See Algorithm for
/// the role split and the policy.
class ActorCritic : public Algorithm {
 protected:
  /// Builds the policy (Algorithm) and the critic from rng split 2.
  ActorCritic(AlgoKind kind, std::size_t obs_dim,
              env::ActionSpace action_space,
              const std::vector<std::size_t>& hidden, double learning_rate,
              double log_std_init, std::uint64_t seed);

  /// Batched critic pass over one worker stream: values[t] = V(obs_t) and
  /// boots[t] = V(next_obs_t), where boots is 0 at true terminals and
  /// values[t+1] inside an episode, so the critic runs once over the
  /// stream and once over its truncation and stream-end rows. Both
  /// vectors must hold stream.size() entries. Leaves the stream's
  /// observations in stream_obs_ and returns the critic evaluations the
  /// cost model charges.
  double critic_pass(const std::vector<Transition>& stream,
                     std::vector<double>& values, std::vector<double>& boots);

  /// log pi(action | head), `head` one row of actor_'s output.
  double log_prob(const double* head, const Vec& action);

  /// Fill the head-gradient row `d_head` with
  /// scale * (d_logp * dlog pi/dhead - entropy_coef * dH/dhead) and
  /// accumulate the same terms into the Gaussian log-std gradient.
  /// `d_logp` is the loss's derivative with respect to
  /// log pi(action | head). Returns the policy's entropy H at `head`.
  double policy_grad(const double* head, const Vec& action, double d_logp,
                     double entropy_coef, double scale, double* d_head);

  /// Zero the actor, log-std and critic gradients.
  void zero_grad();

  /// Clip each network's gradient norm, then take one Adam step on both.
  void clip_and_step(double max_grad_norm);

  nn::Mlp critic_;
  Matrix stream_obs_;  ///< observations of the last critic_pass() stream

 private:
  std::vector<nn::ParamRef> critic_params_;  // cached critic_.params()
  std::unique_ptr<nn::Adam> critic_opt_;

  // Reusable staging; capacity grows to the largest stream seen.
  Matrix boot_obs_;
  std::vector<std::size_t> boot_idx_;
  Vec head_scratch_, d_mean_, d_log_std_;
  // A categorical row's softmax, its logs and the two gradients.
  Vec probs_, log_probs_, g_logp_, g_ent_;
};

}  // namespace darl::rl
