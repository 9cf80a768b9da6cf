// darl/rl/actor_critic.hpp
//
// The learner PPO and IMPALA share: a stochastic policy network from
// policy_shape() (categorical logits, or a Gaussian mean beside a
// state-independent log-std) with a tanh state-value critic of the same
// hidden shape, one Adam optimizer each, the actor their rollout workers
// act with, and the per-sample pieces of a policy-gradient step. Each
// derived learner keeps only its own loss: PPO's clipped surrogate over
// minibatch epochs, IMPALA's V-trace single pass.

#pragma once

#include <memory>
#include <vector>

#include "darl/common/rng.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"
#include "darl/rl/algorithm.hpp"
#include "darl/rl/policy.hpp"

namespace darl::rl {

/// Policy-gradient learner with a state-value critic. See Algorithm for
/// the role split.
class ActorCritic : public Algorithm {
 public:
  AlgoKind kind() const override { return kind_; }
  std::unique_ptr<RolloutActor> make_actor() const override;
  Vec policy_params() const override;
  std::size_t params_bytes() const override;
  std::size_t transition_bytes() const override;

  // The optimizers hold pointers into this object's parameters.
  ActorCritic(const ActorCritic&) = delete;
  ActorCritic& operator=(const ActorCritic&) = delete;

 protected:
  /// Builds the actor from rng split 1 and the critic from split 2.
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

  // Initialized in declaration order: the shape sizes the actor.
  PolicyShape shape_;
  std::size_t obs_dim_;
  env::ActionSpace action_space_;
  Rng rng_;
  nn::Mlp actor_;
  nn::Mlp critic_;
  Matrix stream_obs_;  ///< observations of the last critic_pass() stream

 private:
  AlgoKind kind_;
  Vec log_std_, log_std_grad_;  // Gaussian head only
  std::vector<nn::ParamRef> actor_params_;  // actor_ then log_std_
  std::unique_ptr<nn::Adam> actor_opt_, critic_opt_;

  // Reusable staging; capacity grows to the largest stream seen.
  Matrix boot_obs_;
  std::vector<std::size_t> boot_idx_;
  Vec head_scratch_, d_mean_, d_log_std_;
};

}  // namespace darl::rl
