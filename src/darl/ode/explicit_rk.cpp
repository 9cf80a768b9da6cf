#include "darl/ode/explicit_rk.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"

namespace darl::ode {

ExplicitRk::ExplicitRk(ButcherTableau tableau, AdaptiveOptions options)
    : tableau_(std::move(tableau)), options_(options) {
  tableau_.validate();
  DARL_CHECK(tableau_.embedded(),
             "ExplicitRk requires an embedded pair; '" << tableau_.name
                                                       << "' has none");
  DARL_CHECK(options_.rtol > 0.0 && options_.atol > 0.0,
             "tolerances must be positive");
  DARL_CHECK(options_.safety > 0.0 && options_.safety < 1.0,
             "safety factor must be in (0,1)");
  DARL_CHECK(options_.min_factor > 0.0 &&
                 options_.min_factor < options_.max_factor,
             "step factors inconsistent");
  k_.resize(tableau_.stages());
}

double ExplicitRk::attempt_step(const Rhs& rhs, double t, const Vec& y,
                                double h, bool k0_valid) {
  const std::size_t s = tableau_.stages();
  const std::size_t n = y.size();
  for (auto& k : k_) k.resize(n);
  y_stage_.resize(n);
  y_new_.resize(n);
  y_err_.resize(n);
  err_scale_.resize(n);

  if (!k0_valid) {
    rhs(t, y, k_[0]);
    ++stats_.n_rhs_evals;
  }
  for (std::size_t i = 1; i < s; ++i) {
    y_stage_ = y;
    for (std::size_t j = 0; j < i; ++j) {
      const double aij = tableau_.a[i][j];
      if (aij != 0.0) axpy(h * aij, k_[j], y_stage_);
    }
    rhs(t + tableau_.c[i] * h, y_stage_, k_[i]);
    ++stats_.n_rhs_evals;
  }

  y_new_ = y;
  for (std::size_t i = 0; i < s; ++i) {
    if (tableau_.b[i] != 0.0) axpy(h * tableau_.b[i], k_[i], y_new_);
  }
  // Error = h * sum_i (b_i - b_low_i) k_i.
  std::fill(y_err_.begin(), y_err_.end(), 0.0);
  for (std::size_t i = 0; i < s; ++i) {
    const double d = tableau_.b[i] - tableau_.b_low[i];
    if (d != 0.0) axpy(h * d, k_[i], y_err_);
  }
  for (std::size_t i = 0; i < n; ++i) {
    err_scale_[i] = options_.atol +
                    options_.rtol * std::max(std::abs(y[i]), std::abs(y_new_[i]));
  }
  return rms_norm_scaled(y_err_, err_scale_);
}

void ExplicitRk::do_integrate(const Rhs& rhs, double t0, double t1, Vec& y) {
  DARL_CHECK(!y.empty(), "integrate with empty state");
  DARL_CHECK(t1 >= t0, "integrate with t1 < t0");
  if (t1 == t0) return;

  const double span = t1 - t0;
  const double h_max = options_.h_max > 0.0 ? options_.h_max : span;
  double h = std::min({options_.h_initial, h_max, span});
  double t = t0;
  bool fsal_valid = false;
  const std::size_t s = tableau_.stages();
  std::size_t taken = 0;

  while (t < t1) {
    DARL_CHECK(taken < options_.max_steps,
               "integrator '" << tableau_.name << "' exceeded "
                              << options_.max_steps << " steps");
    ++taken;
    const bool last = (t + h >= t1 - 1e-14 * span);
    const double h_eff = last ? (t1 - t) : h;

    const double err = attempt_step(rhs, t, y, h_eff, fsal_valid);
    DARL_CHECK(all_finite(y_new_), "state became non-finite at t=" << t);

    const double q = static_cast<double>(tableau_.error_order);
    double factor;
    if (err == 0.0) {
      factor = options_.max_factor;
    } else {
      factor = std::clamp(options_.safety * math::pow(err, -1.0 / (q + 1.0)),
                          options_.min_factor, options_.max_factor);
    }

    if (err <= 1.0 || h_eff <= options_.h_min) {
      // Accept.
      t = last ? t1 : t + h_eff;
      y = y_new_;
      ++stats_.n_steps;
      if (tableau_.fsal) {
        k_[0] = k_[s - 1];
        fsal_valid = true;
      } else {
        fsal_valid = false;
      }
      h = std::min(h_eff * factor, h_max);
      h = std::max(h, options_.h_min);
    } else {
      // Reject and retry with a smaller step. k_[0] already holds f(t, y),
      // which is unchanged for the retry, so it can be reused.
      ++stats_.n_rejected;
      h = std::max(h_eff * factor, options_.h_min);
      fsal_valid = true;
    }
  }
}

FixedStepRk::FixedStepRk(ButcherTableau tableau, std::size_t n_steps)
    : tableau_(std::move(tableau)), n_steps_(n_steps) {
  tableau_.validate();
  DARL_CHECK(n_steps > 0, "FixedStepRk needs at least one step");
  k_.resize(tableau_.stages());
}

void FixedStepRk::do_integrate(const Rhs& rhs, double t0, double t1, Vec& y) {
  DARL_CHECK(!y.empty(), "integrate with empty state");
  DARL_CHECK(t1 >= t0, "integrate with t1 < t0");
  if (t1 == t0) return;
  const std::size_t s = tableau_.stages();
  const std::size_t n = y.size();
  for (auto& k : k_) k.resize(n);
  y_stage_.resize(n);

  const double h = (t1 - t0) / static_cast<double>(n_steps_);
  double t = t0;
  for (std::size_t step = 0; step < n_steps_; ++step) {
    rhs(t, y, k_[0]);
    ++stats_.n_rhs_evals;
    for (std::size_t i = 1; i < s; ++i) {
      y_stage_ = y;
      for (std::size_t j = 0; j < i; ++j) {
        const double aij = tableau_.a[i][j];
        if (aij != 0.0) axpy(h * aij, k_[j], y_stage_);
      }
      rhs(t + tableau_.c[i] * h, y_stage_, k_[i]);
      ++stats_.n_rhs_evals;
    }
    for (std::size_t i = 0; i < s; ++i) {
      if (tableau_.b[i] != 0.0) axpy(h * tableau_.b[i], k_[i], y);
    }
    ++stats_.n_steps;
    t = t0 + static_cast<double>(step + 1) * h;
  }
  DARL_CHECK(all_finite(y), "state became non-finite");
}

}  // namespace darl::ode
