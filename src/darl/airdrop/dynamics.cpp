#include "darl/airdrop/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"

namespace darl::airdrop {

void canopy_rhs(const CanopyParams& params, const WindState& wind, double u,
                double t, const Vec& state, Vec& dydt) {
  (void)t;  // autonomous system
  DARL_ASSERT(state.size() == kStateDim, "canopy state has wrong size");
  dydt.resize(kStateDim);

  const double vx = state[3];
  const double vy = state[4];
  const double vz = state[5];
  const double psi = state[6];
  const double psi_dot = state[7];

  // Turn coupling: banking for a turn sheds forward speed and adds sink.
  const double turn_frac =
      std::min(std::abs(psi_dot) / params.max_turn_rate, 1.5);
  const double va = params.trim_airspeed *
                    (1.0 - params.turn_speed_loss * turn_frac * turn_frac);
  const double vs =
      params.sink_rate * (1.0 + params.turn_sink_gain * turn_frac * turn_frac);

  // Trim velocity the canopy relaxes toward: forward flight along the
  // heading, advected by the wind, sinking at vs.
  const double vx_trim = va * math::cos(psi) + wind.wx;
  const double vy_trim = va * math::sin(psi) + wind.wy;
  const double vz_trim = -vs;

  dydt[0] = vx;
  dydt[1] = vy;
  dydt[2] = vz;
  dydt[3] = (vx_trim - vx) / params.tau_velocity;
  dydt[4] = (vy_trim - vy) / params.tau_velocity;
  dydt[5] = (vz_trim - vz) / params.tau_velocity;
  dydt[6] = psi_dot;
  dydt[7] = (std::clamp(u, -1.0, 1.0) * params.max_turn_rate - psi_dot) /
            params.tau_heading;
}

WindState WindProfile::at(double z) const {
  if (shear_exponent == 0.0) return reference;
  DARL_ASSERT(ref_altitude > 0.0, "wind profile needs ref_altitude > 0");
  const double z_eff = std::max(z, ref_altitude / 100.0);
  const double factor = math::pow(z_eff / ref_altitude, shear_exponent);
  return WindState{reference.wx * factor, reference.wy * factor};
}

void canopy_rhs_sheared(const CanopyParams& params, const WindProfile& wind,
                        double u, double t, const Vec& state, Vec& dydt) {
  canopy_rhs(params, wind.at(state[2]), u, t, state, dydt);
}

ode::Rhs make_canopy_rhs(const CanopyParams& params, const WindState& wind,
                         double u) {
  return [params, wind, u](double t, const Vec& y, Vec& dydt) {
    canopy_rhs(params, wind, u, t, y, dydt);
  };
}

ode::Rhs make_canopy_rhs(const CanopyParams& params, const WindProfile& wind,
                         double u) {
  return [params, wind, u](double t, const Vec& y, Vec& dydt) {
    canopy_rhs_sheared(params, wind, u, t, y, dydt);
  };
}

Vec trim_state(const CanopyParams& params, double x, double y, double z,
               double heading, const WindState& wind) {
  Vec s(kStateDim, 0.0);
  s[0] = x;
  s[1] = y;
  s[2] = z;
  s[3] = params.trim_airspeed * math::cos(heading) + wind.wx;
  s[4] = params.trim_airspeed * math::sin(heading) + wind.wy;
  s[5] = -params.sink_rate;
  s[6] = heading;
  s[7] = 0.0;
  return s;
}

double glide_ratio(const CanopyParams& params) {
  DARL_CHECK(params.sink_rate > 0.0, "sink rate must be positive");
  return params.trim_airspeed / params.sink_rate;
}

}  // namespace darl::airdrop
