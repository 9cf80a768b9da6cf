// darl/ode/explicit_rk.hpp
//
// Adaptive embedded explicit Runge-Kutta integrator driven by a Butcher
// tableau, plus a fixed-step driver for non-embedded methods.

#pragma once

#include <string>

#include "darl/ode/integrator.hpp"
#include "darl/ode/tableau.hpp"

namespace darl::ode {

/// Adaptive integrator for an embedded explicit RK pair. Implements the
/// standard PI-free controller: error is measured in the mixed
/// atol/rtol-scaled RMS norm; the next step is
/// h * clamp(safety * err^(-1/(q+1)), min_factor, max_factor) with q the
/// embedded order. FSAL pairs reuse the last stage across accepted steps.
class ExplicitRk final : public Integrator {
 public:
  /// The tableau must be embedded (b_low non-empty) and valid.
  ExplicitRk(ButcherTableau tableau, AdaptiveOptions options);

  void do_integrate(const Rhs& rhs, double t0, double t1, Vec& y) override;
  int order() const override { return tableau_.order; }
  const std::string& name() const override { return tableau_.name; }

  const AdaptiveOptions& options() const { return options_; }

 private:
  ButcherTableau tableau_;
  AdaptiveOptions options_;

  // Workspace reused across steps to avoid per-step allocation.
  std::vector<Vec> k_;
  Vec y_stage_, y_new_, y_err_, err_scale_;

  /// One trial step of size h from (t, y); fills y_new_ and y_err_ and
  /// returns the scaled error norm. `k0_valid` signals a reusable FSAL
  /// first stage already stored in k_[0].
  double attempt_step(const Rhs& rhs, double t, const Vec& y, double h,
                      bool k0_valid);
};

/// Fixed-step explicit RK driver (used with rk4_classic in tests). Takes
/// `n_steps` equal steps over the interval.
class FixedStepRk final : public Integrator {
 public:
  FixedStepRk(ButcherTableau tableau, std::size_t n_steps);

  void do_integrate(const Rhs& rhs, double t0, double t1, Vec& y) override;
  int order() const override { return tableau_.order; }
  const std::string& name() const override { return tableau_.name; }

  std::size_t n_steps() const { return n_steps_; }

 private:
  ButcherTableau tableau_;
  std::size_t n_steps_;
  std::vector<Vec> k_;
  Vec y_stage_;
};

}  // namespace darl::ode
