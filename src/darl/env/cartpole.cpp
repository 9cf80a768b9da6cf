#include "darl/env/cartpole.hpp"

#include <cmath>
#include <numbers>

#include "darl/common/elementary.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/wrappers.hpp"

namespace darl::env {
namespace {

constexpr double kGravity = 9.8;
constexpr double kCartMass = 1.0;
constexpr double kPoleMass = 0.1;
constexpr double kTotalMass = kCartMass + kPoleMass;
constexpr double kPoleHalfLength = 0.5;
constexpr double kPoleMassLength = kPoleMass * kPoleHalfLength;
constexpr double kForceMag = 10.0;
constexpr double kDt = 0.02;
constexpr double kThetaLimit = 12.0 * 2.0 * std::numbers::pi / 360.0;
constexpr double kXLimit = 2.4;

}  // namespace

CartPoleEnv::CartPoleEnv()
    : obs_space_(4, -1e6, 1e6), act_space_(DiscreteSpace(2)) {}

Vec CartPoleEnv::do_reset(Rng& rng) {
  state_.assign(4, 0.0);
  for (double& v : state_) v = rng.uniform(-0.05, 0.05);
  return state_;
}

StepResult CartPoleEnv::do_step(Rng& rng, const Vec& action) {
  (void)rng;
  const std::size_t a = act_space_.discrete().decode(action);
  const double force = a == 1 ? kForceMag : -kForceMag;

  double x = state_[0], x_dot = state_[1], theta = state_[2], theta_dot = state_[3];
  const double cos_t = math::cos(theta);
  const double sin_t = math::sin(theta);
  const double temp =
      (force + kPoleMassLength * theta_dot * theta_dot * sin_t) / kTotalMass;
  const double theta_acc =
      (kGravity * sin_t - cos_t * temp) /
      (kPoleHalfLength * (4.0 / 3.0 - kPoleMass * cos_t * cos_t / kTotalMass));
  const double x_acc = temp - kPoleMassLength * theta_acc * cos_t / kTotalMass;

  // Semi-implicit Euler, as in the reference gym implementation.
  x += kDt * x_dot;
  x_dot += kDt * x_acc;
  theta += kDt * theta_dot;
  theta_dot += kDt * theta_acc;
  state_ = {x, x_dot, theta, theta_dot};
  pending_cost_ += 1.0;

  StepResult r;
  r.observation = state_;
  r.reward = 1.0;
  r.terminated = std::abs(x) > kXLimit || std::abs(theta) > kThetaLimit;
  return r;
}

double CartPoleEnv::take_compute_cost() {
  const double c = pending_cost_;
  pending_cost_ = 0.0;
  return c;
}

EnvFactory make_cartpole_factory(std::size_t time_limit) {
  return [time_limit]() -> std::unique_ptr<Env> {
    return std::make_unique<TimeLimit>(std::make_unique<CartPoleEnv>(),
                                       time_limit);
  };
}

}  // namespace darl::env
