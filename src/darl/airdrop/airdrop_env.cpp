#include "darl/airdrop/airdrop_env.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/ode/event.hpp"

namespace darl::airdrop {
namespace {

env::ActionSpace make_action_space(ActionMode mode) {
  if (mode == ActionMode::Discrete3) {
    return env::ActionSpace(env::DiscreteSpace(3));
  }
  return env::ActionSpace(env::BoxSpace(1, -1.0, 1.0));
}

}  // namespace

AirdropEnv::AirdropEnv(AirdropConfig config)
    : config_(config),
      obs_space_(kObservationDim, -20.0, 20.0),
      act_space_(make_action_space(config.action_mode)) {
  DARL_CHECK(config_.altitude_min > 0.0 &&
                 config_.altitude_min <= config_.altitude_max,
             "invalid drop-altitude interval [" << config_.altitude_min << ", "
                                                << config_.altitude_max << "]");
  DARL_CHECK(config_.control_dt > 0.0, "control interval must be positive");
  DARL_CHECK(config_.reward_scale > 0.0, "reward scale must be positive");
  DARL_CHECK(config_.gust_probability >= 0.0 && config_.gust_probability <= 1.0,
             "gust probability out of [0,1]");
  DARL_CHECK(config_.drop_offset_fraction >= 0.0 &&
                 config_.drop_offset_fraction <= 1.0,
             "drop offset fraction out of [0,1]");
  DARL_CHECK(config_.wind_ref_altitude > 0.0,
             "wind reference altitude must be positive");
  DARL_CHECK(config_.wind_shear_exponent >= 0.0,
             "wind shear exponent must be non-negative");

  // The simulator integrates each control interval in one macro step of the
  // configured method ("fixed-step" semantics): the per-interval truncation
  // error is then a real, order-dependent quantity, and the per-interval
  // cost is the method's stage count — the two sides of the paper's
  // Runge-Kutta trade-off. The huge tolerances below make the adaptive
  // driver accept the single step.
  ode::AdaptiveOptions opts;
  opts.rtol = 1e6;
  opts.atol = 1e6;
  opts.h_initial = config_.control_dt;
  integrator_ = ode::make_integrator(config_.rk_order, opts);
}

WindState AirdropEnv::current_wind() const {
  WindState w = ambient_wind_;
  if (gust_time_left_ > 0.0) {
    w.wx += gust_.wx;
    w.wy += gust_.wy;
  }
  return w;
}

double AirdropEnv::distance_to_target() const {
  return math::hypot(state_[0], state_[1]);
}

double AirdropEnv::potential() const {
  // Negative distance, normalized by the drop-to-target glide range scale.
  const double range = glide_ratio(config_.canopy) * config_.altitude_max;
  return -distance_to_target() / range;
}

Vec AirdropEnv::observe() const {
  const auto& p = config_.canopy;
  const double x = state_[0], y = state_[1], z = state_[2];
  const double vx = state_[3], vy = state_[4], vz = state_[5];
  const double psi = state_[6], psi_dot = state_[7];

  const double dist = distance_to_target();
  const double range = glide_ratio(p) * config_.altitude_max;
  const double bearing = math::atan2(-y, -x);  // direction toward the target
  const double rel = bearing - psi;

  Vec obs(kObservationDim);
  obs[0] = dist / range;
  obs[1] = math::cos(rel);
  obs[2] = math::sin(rel);
  obs[3] = z / config_.altitude_max;
  obs[4] = vx / p.trim_airspeed;
  obs[5] = vy / p.trim_airspeed;
  obs[6] = vz / p.sink_rate;
  obs[7] = math::cos(psi);
  obs[8] = math::sin(psi);
  obs[9] = psi_dot / p.max_turn_rate;
  obs[10] = x / range;
  obs[11] = y / range;
  return obs;
}

Vec AirdropEnv::do_reset(Rng& rng) {
  // 1) Drop altitude uniform in the configured interval (paper Alg. 1).
  const double z0 = rng.uniform(config_.altitude_min, config_.altitude_max);

  // 2) Ambient wind for the episode.
  ambient_wind_ = WindState{};
  if (config_.wind_enabled) {
    const double speed = rng.uniform(0.0, config_.wind_speed_max);
    const double dir = rng.uniform(0.0, 2.0 * std::numbers::pi);
    ambient_wind_ = WindState{speed * math::cos(dir), speed * math::sin(dir)};
  }
  gust_ = WindState{};
  gust_time_left_ = 0.0;

  // 3) Horizontal offset inside the reachable glide cone and random heading.
  const double reach = glide_ratio(config_.canopy) * z0;
  const double offset = rng.uniform(0.15, config_.drop_offset_fraction) * reach;
  const double offset_dir = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double heading = rng.uniform(-std::numbers::pi, std::numbers::pi);

  state_ = trim_state(config_.canopy, offset * math::cos(offset_dir),
                      offset * math::sin(offset_dir), z0, heading, ambient_wind_);
  time_ = 0.0;
  last_potential_ = potential();
  return observe();
}

double AirdropEnv::command_from_action(const Vec& action) const {
  if (config_.action_mode == ActionMode::Discrete3) {
    switch (act_space_.discrete().decode(action)) {
      case 0: return -1.0;  // rotate left
      case 1: return 0.0;   // hold heading
      default: return 1.0;  // rotate right
    }
  }
  return std::clamp(action[0], -1.0, 1.0);
}

env::StepResult AirdropEnv::do_step(Rng& rng, const Vec& action) {
  const double u = command_from_action(action);

  // Gust model: onset with configured probability, held for gust_duration.
  if (config_.gusts_enabled) {
    if (gust_time_left_ <= 0.0 && rng.bernoulli(config_.gust_probability)) {
      const double dir = rng.uniform(0.0, 2.0 * std::numbers::pi);
      gust_ = WindState{config_.gust_speed * math::cos(dir),
                        config_.gust_speed * math::sin(dir)};
      gust_time_left_ = config_.gust_duration;
    }
  }

  WindProfile wind_profile;
  wind_profile.reference = current_wind();
  wind_profile.ref_altitude = config_.wind_ref_altitude;
  wind_profile.shear_exponent = config_.wind_shear_exponent;
  const auto rhs = make_canopy_rhs(config_.canopy, wind_profile, u);
  bool landed;
  if (config_.precise_touchdown) {
    const auto ground = [](double, const Vec& y) { return y[2]; };
    const ode::EventResult ev = ode::integrate_with_event(
        *integrator_, rhs, time_, time_ + config_.control_dt, state_, ground,
        config_.touchdown_tolerance);
    time_ = ev.t_end;
    landed = ev.triggered;
  } else {
    integrator_->integrate(rhs, time_, time_ + config_.control_dt, state_);
    time_ += config_.control_dt;
    landed = state_[2] <= 0.0;
  }
  if (gust_time_left_ > 0.0) gust_time_left_ -= config_.control_dt;

  env::StepResult r;
  const bool overtime = episode_steps() >= config_.max_episode_steps;

  if (landed) {
    const double dist = distance_to_target();
    last_landing_.distance = dist;
    last_landing_.landing_reward = -dist / config_.reward_scale;
    last_landing_.flight_time = time_;
    r.reward = last_landing_.landing_reward;
    r.terminated = true;
  } else {
    // Potential-based shaping: w * (phi(s') - phi(s)); telescopes to the
    // net progress made, leaving the optimal policy unchanged.
    const double phi = potential();
    r.reward = config_.shaping_weight * (phi - last_potential_);
    last_potential_ = phi;
    r.truncated = overtime;
    if (overtime) {
      // Treat a never-landing trajectory as a maximally bad drop.
      last_landing_.distance = distance_to_target();
      last_landing_.landing_reward =
          -distance_to_target() / config_.reward_scale;
      last_landing_.flight_time = time_;
    }
  }
  r.observation = observe();
  return r;
}

double AirdropEnv::take_compute_cost() {
  const auto total = integrator_->stats().n_rhs_evals;
  const double delta = static_cast<double>(total - rhs_evals_drained_);
  rhs_evals_drained_ = total;
  return delta;
}

env::EnvFactory make_airdrop_factory(const AirdropConfig& config) {
  return [config]() -> std::unique_ptr<env::Env> {
    return std::make_unique<AirdropEnv>(config);
  };
}

}  // namespace darl::airdrop
