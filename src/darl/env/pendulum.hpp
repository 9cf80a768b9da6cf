// darl/env/pendulum.hpp
//
// Classic-control Pendulum-v1 environment (continuous torque action), the
// standard continuous-control smoke test used to validate the SAC
// implementation and as an alternative case study in the examples.

#pragma once

#include "darl/env/env.hpp"

namespace darl::env {

/// Pendulum swing-up with the gym reward
/// -(angle^2 + 0.1*thetadot^2 + 0.001*torque^2); never terminates on its
/// own (wrap in TimeLimit, usually 200).
class PendulumEnv final : public EnvBase {
 public:
  PendulumEnv();

  const BoxSpace& observation_space() const override { return obs_space_; }
  const ActionSpace& action_space() const override { return act_space_; }
  const std::string& name() const override { return name_; }
  double take_compute_cost() override;

 protected:
  Vec do_reset(Rng& rng) override;
  StepResult do_step(Rng& rng, const Vec& action) override;

 private:
  Vec observe() const;

  BoxSpace obs_space_;
  ActionSpace act_space_;
  std::string name_ = "Pendulum";
  double theta_ = 0.0;
  double theta_dot_ = 0.0;
  double pending_cost_ = 0.0;
};

/// Factory for use with backends and rollout workers.
EnvFactory make_pendulum_factory(std::size_t time_limit = 200);

}  // namespace darl::env
