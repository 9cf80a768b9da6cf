// darl/env/mountain_car.hpp
//
// Classic-control MountainCarContinuous: an under-powered car must build
// momentum to escape a valley. A third gym case study with a sparse
// success bonus — useful for exercising exploration-sensitive behaviour in
// tests and studies.

#pragma once

#include "darl/env/env.hpp"

namespace darl::env {

/// Continuous mountain car with the standard gym dynamics: action is a
/// force in [-1, 1]; reward is -0.1*a^2 per step plus +100 on reaching the
/// goal position (0.45). Terminates at the goal; combine with TimeLimit
/// (usually 999).
class MountainCarEnv final : public EnvBase {
 public:
  MountainCarEnv();

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
  std::string name_ = "MountainCarContinuous";
  double position_ = 0.0;
  double velocity_ = 0.0;
  double pending_cost_ = 0.0;
};

/// Factory for use with backends and rollout workers.
EnvFactory make_mountain_car_factory(std::size_t time_limit = 999);

}  // namespace darl::env
