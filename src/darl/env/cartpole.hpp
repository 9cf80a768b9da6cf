// darl/env/cartpole.hpp
//
// Classic-control CartPole-v1 environment (discrete actions), used by the
// examples and tests as a second gym case study — the paper's §III-B names
// gym environments as the canonical "case study" inputs to the methodology.

#pragma once

#include "darl/env/env.hpp"

namespace darl::env {

/// CartPole with the standard gym dynamics and termination rules:
/// +1 reward per step, episode ends when |x| > 2.4 or |theta| > 12 degrees.
/// Combine with TimeLimit (usually 500) for the -v1 behaviour.
class CartPoleEnv final : public EnvBase {
 public:
  CartPoleEnv();

  const BoxSpace& observation_space() const override { return obs_space_; }
  const ActionSpace& action_space() const override { return act_space_; }
  const std::string& name() const override { return name_; }
  double take_compute_cost() override;

 protected:
  Vec do_reset(Rng& rng) override;
  StepResult do_step(Rng& rng, const Vec& action) override;

 private:
  BoxSpace obs_space_;
  ActionSpace act_space_;
  std::string name_ = "CartPole";
  Vec state_;  // x, x_dot, theta, theta_dot
  double pending_cost_ = 0.0;
};

/// Factory for use with backends and rollout workers.
EnvFactory make_cartpole_factory(std::size_t time_limit = 500);

}  // namespace darl::env
