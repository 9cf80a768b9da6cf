#include "darl/env/pendulum.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "darl/common/elementary.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/wrappers.hpp"

namespace darl::env {
namespace {

constexpr double kMaxSpeed = 8.0;
constexpr double kMaxTorque = 2.0;
constexpr double kDt = 0.05;
constexpr double kG = 10.0;
constexpr double kMass = 1.0;
constexpr double kLength = 1.0;

double wrap_angle(double a) {
  const double two_pi = 2.0 * std::numbers::pi;
  a = std::fmod(a + std::numbers::pi, two_pi);
  if (a < 0.0) a += two_pi;
  return a - std::numbers::pi;
}

}  // namespace

PendulumEnv::PendulumEnv()
    : obs_space_(Vec{-1.0, -1.0, -kMaxSpeed}, Vec{1.0, 1.0, kMaxSpeed}),
      act_space_(BoxSpace(1, -kMaxTorque, kMaxTorque)) {}

Vec PendulumEnv::observe() const {
  return {math::cos(theta_), math::sin(theta_), theta_dot_};
}

Vec PendulumEnv::do_reset(Rng& rng) {
  theta_ = rng.uniform(-std::numbers::pi, std::numbers::pi);
  theta_dot_ = rng.uniform(-1.0, 1.0);
  return observe();
}

StepResult PendulumEnv::do_step(Rng& rng, const Vec& action) {
  (void)rng;
  const double u = std::clamp(action[0], -kMaxTorque, kMaxTorque);
  const double angle = wrap_angle(theta_);
  const double cost =
      angle * angle + 0.1 * theta_dot_ * theta_dot_ + 0.001 * u * u;

  theta_dot_ += (3.0 * kG / (2.0 * kLength) * math::sin(theta_) +
                 3.0 / (kMass * kLength * kLength) * u) *
                kDt;
  theta_dot_ = std::clamp(theta_dot_, -kMaxSpeed, kMaxSpeed);
  theta_ += theta_dot_ * kDt;
  pending_cost_ += 1.0;

  StepResult r;
  r.observation = observe();
  r.reward = -cost;
  r.terminated = false;
  return r;
}

double PendulumEnv::take_compute_cost() {
  const double c = pending_cost_;
  pending_cost_ = 0.0;
  return c;
}

EnvFactory make_pendulum_factory(std::size_t time_limit) {
  return [time_limit]() -> std::unique_ptr<Env> {
    return std::make_unique<TimeLimit>(std::make_unique<PendulumEnv>(),
                                       time_limit);
  };
}

}  // namespace darl::env
