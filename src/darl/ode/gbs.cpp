#include "darl/ode/gbs.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"

namespace darl::ode {

GbsExtrapolation::GbsExtrapolation(int half_order, AdaptiveOptions options)
    : k_(half_order), options_(options) {
  DARL_CHECK(k_ >= 2, "GBS needs half_order >= 2, got " << k_);
  DARL_CHECK(options_.rtol > 0.0 && options_.atol > 0.0,
             "tolerances must be positive");
  name_ = "GBS extrapolation (order " + std::to_string(2 * k_) + ")";
  substeps_.resize(static_cast<std::size_t>(k_));
  for (int j = 0; j < k_; ++j)
    substeps_[static_cast<std::size_t>(j)] = static_cast<std::size_t>(2 * (j + 1));
}

void GbsExtrapolation::modified_midpoint(const Rhs& rhs, double t, const Vec& y,
                                         double H, std::size_t n, Vec& out) {
  const std::size_t dim = y.size();
  const double h = H / static_cast<double>(n);
  z_prev_.resize(dim);
  z_curr_.resize(dim);
  z_next_.resize(dim);
  deriv_.resize(dim);

  // z0 = y; z1 = z0 + h f(t, z0)
  z_prev_ = y;
  rhs(t, z_prev_, deriv_);
  ++stats_.n_rhs_evals;
  z_curr_ = z_prev_;
  axpy(h, deriv_, z_curr_);

  // z_{m+1} = z_{m-1} + 2h f(t + mh, z_m)
  for (std::size_t m = 1; m < n; ++m) {
    rhs(t + static_cast<double>(m) * h, z_curr_, deriv_);
    ++stats_.n_rhs_evals;
    z_next_ = z_prev_;
    axpy(2.0 * h, deriv_, z_next_);
    z_prev_.swap(z_curr_);
    z_curr_.swap(z_next_);
  }

  // Gragg smoothing: S = (z_{n-1} + z_n + h f(t+H, z_n)) / 2 — kills the
  // oscillating parasitic mode and keeps the even error expansion.
  rhs(t + H, z_curr_, deriv_);
  ++stats_.n_rhs_evals;
  out.resize(dim);
  for (std::size_t i = 0; i < dim; ++i)
    out[i] = 0.5 * (z_prev_[i] + z_curr_[i] + h * deriv_[i]);
}

void GbsExtrapolation::do_integrate(const Rhs& rhs, double t0, double t1, Vec& y) {
  DARL_CHECK(!y.empty(), "integrate with empty state");
  DARL_CHECK(t1 >= t0, "integrate with t1 < t0");
  if (t1 == t0) return;

  const std::size_t kk = static_cast<std::size_t>(k_);
  const double span = t1 - t0;
  const double h_max = options_.h_max > 0.0 ? options_.h_max : span;
  double H = std::min({options_.h_initial, h_max, span});
  double t = t0;
  std::size_t taken = 0;
  const std::size_t dim = y.size();

  // rows[j][l] = T_{j,l} for the Aitken-Neville tableau of this macro step.
  std::vector<std::vector<Vec>> rows(kk);

  while (t < t1) {
    DARL_CHECK(taken < options_.max_steps,
               "GBS exceeded " << options_.max_steps << " steps");
    ++taken;
    const bool last = (t + H >= t1 - 1e-14 * span);
    const double H_eff = last ? (t1 - t) : H;

    for (std::size_t j = 0; j < kk; ++j) {
      rows[j].assign(j + 1, Vec());
      modified_midpoint(rhs, t, y, H_eff, substeps_[j], rows[j][0]);
      for (std::size_t l = 1; l <= j; ++l) {
        const double r = static_cast<double>(substeps_[j]) /
                         static_cast<double>(substeps_[j - l]);
        const double denom = r * r - 1.0;
        rows[j][l].resize(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          rows[j][l][i] = rows[j][l - 1][i] +
                          (rows[j][l - 1][i] - rows[j - 1][l - 1][i]) / denom;
        }
      }
    }

    const Vec& high = rows[kk - 1][kk - 1];  // order 2k
    const Vec& low = rows[kk - 1][kk - 2];   // order 2(k-1)
    DARL_CHECK(all_finite(high), "state became non-finite at t=" << t);

    y_err_.resize(dim);
    err_scale_.resize(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      y_err_[i] = high[i] - low[i];
      err_scale_[i] = options_.atol +
                      options_.rtol * std::max(std::abs(y[i]), std::abs(high[i]));
    }
    const double err = rms_norm_scaled(y_err_, err_scale_);

    // Controller exponent uses the embedded order 2(k-1): q + 1 = 2k - 1.
    const double q1 = 2.0 * static_cast<double>(k_) - 1.0;
    double factor;
    if (err == 0.0) {
      factor = options_.max_factor;
    } else {
      factor = std::clamp(options_.safety * math::pow(err, -1.0 / q1),
                          options_.min_factor, options_.max_factor);
    }

    if (err <= 1.0 || H_eff <= options_.h_min) {
      t = last ? t1 : t + H_eff;
      y = high;
      ++stats_.n_steps;
      H = std::max(std::min(H_eff * factor, h_max), options_.h_min);
    } else {
      ++stats_.n_rejected;
      H = std::max(H_eff * factor, options_.h_min);
    }
  }
}

}  // namespace darl::ode
