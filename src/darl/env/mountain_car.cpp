#include "darl/env/mountain_car.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/wrappers.hpp"

namespace darl::env {
namespace {

constexpr double kMinPosition = -1.2;
constexpr double kMaxPosition = 0.6;
constexpr double kMaxSpeed = 0.07;
constexpr double kGoalPosition = 0.45;
constexpr double kPower = 0.0015;
constexpr double kGravity = 0.0025;

}  // namespace

MountainCarEnv::MountainCarEnv()
    : obs_space_(Vec{kMinPosition, -kMaxSpeed}, Vec{kMaxPosition, kMaxSpeed}),
      act_space_(BoxSpace(1, -1.0, 1.0)) {}

Vec MountainCarEnv::do_reset(Rng& rng) {
  position_ = rng.uniform(-0.6, -0.4);
  velocity_ = 0.0;
  return {position_, velocity_};
}

StepResult MountainCarEnv::do_step(Rng& rng, const Vec& action) {
  (void)rng;
  const double force = std::clamp(action[0], -1.0, 1.0);
  velocity_ += force * kPower - kGravity * math::cos(3.0 * position_);
  velocity_ = std::clamp(velocity_, -kMaxSpeed, kMaxSpeed);
  position_ += velocity_;
  position_ = std::clamp(position_, kMinPosition, kMaxPosition);
  if (position_ <= kMinPosition && velocity_ < 0.0) velocity_ = 0.0;
  pending_cost_ += 1.0;

  StepResult r;
  r.observation = {position_, velocity_};
  r.terminated = position_ >= kGoalPosition;
  r.reward = -0.1 * force * force + (r.terminated ? 100.0 : 0.0);
  return r;
}

double MountainCarEnv::take_compute_cost() {
  const double c = pending_cost_;
  pending_cost_ = 0.0;
  return c;
}

EnvFactory make_mountain_car_factory(std::size_t time_limit) {
  return [time_limit]() -> std::unique_ptr<Env> {
    return std::make_unique<TimeLimit>(std::make_unique<MountainCarEnv>(),
                                       time_limit);
  };
}

}  // namespace darl::env
