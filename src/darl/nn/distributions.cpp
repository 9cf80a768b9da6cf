#include "darl/nn/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"

namespace darl::nn {
namespace {

constexpr double kLog2Pi = 1.8378770664093454836;  // log(2*pi)

}  // namespace

Vec Categorical::softmax(const Vec& logits) {
  Vec p;
  softmax(logits, p);
  return p;
}

void Categorical::softmax(const Vec& logits, Vec& p) {
  DARL_CHECK(!logits.empty(), "softmax of empty logits");
  const double m = *std::max_element(logits.begin(), logits.end());
  p.resize(logits.size());
  double z = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = math::exp(logits[i] - m);
    z += p[i];
  }
  for (double& v : p) v /= z;
}

double Categorical::entropy_of(const Vec& p, Vec& log_p) {
  log_p.resize(p.size());
  double h = 0.0;
  for (std::size_t k = 0; k < p.size(); ++k) {
    log_p[k] = p[k] > 0.0 ? math::log(p[k]) : -745.0;
    if (p[k] > 0.0) h -= p[k] * log_p[k];
  }
  return h;
}

std::size_t Categorical::sample(const Vec& logits, Rng& rng) {
  return rng.categorical(softmax(logits));
}

double Categorical::log_prob(const Vec& logits, std::size_t a) {
  DARL_CHECK(a < logits.size(), "action " << a << " out of " << logits.size());
  const double m = *std::max_element(logits.begin(), logits.end());
  double z = 0.0;
  for (double l : logits) z += math::exp(l - m);
  return logits[a] - m - math::log(z);
}

void Categorical::log_prob_grad(const Vec& p, std::size_t a, Vec& g) {
  DARL_CHECK(a < p.size(), "action " << a << " out of " << p.size());
  g.resize(p.size());
  for (std::size_t k = 0; k < p.size(); ++k) g[k] = -p[k];
  g[a] += 1.0;
}

void Categorical::entropy_grad(const Vec& p, const Vec& log_p, double h, Vec& g) {
  // H = -sum p log p with p = softmax(l).
  // dH/dl_k = -p_k * (log p_k + H)   [standard softmax-entropy gradient]
  g.resize(p.size());
  for (std::size_t k = 0; k < p.size(); ++k) g[k] = -p[k] * (log_p[k] + h);
}

Vec DiagGaussian::sample(const Vec& mean, const Vec& log_std, Rng& rng) {
  DARL_CHECK(mean.size() == log_std.size(), "mean/log_std size mismatch");
  Vec x(mean.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = mean[i] + math::exp(log_std[i]) * rng.normal();
  return x;
}

double DiagGaussian::log_prob(const Vec& mean, const Vec& log_std, const Vec& x) {
  DARL_CHECK(mean.size() == log_std.size() && mean.size() == x.size(),
             "DiagGaussian size mismatch");
  double lp = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double sd = math::exp(log_std[i]);
    const double z = (x[i] - mean[i]) / sd;
    lp += -0.5 * z * z - log_std[i] - 0.5 * kLog2Pi;
  }
  return lp;
}

double DiagGaussian::entropy(const Vec& log_std) {
  double h = 0.0;
  for (double ls : log_std) h += ls + 0.5 * (kLog2Pi + 1.0);
  return h;
}

void DiagGaussian::log_prob_grad(const Vec& mean, const Vec& log_std,
                                 const Vec& x, Vec& d_mean, Vec& d_log_std) {
  DARL_CHECK(mean.size() == log_std.size() && mean.size() == x.size(),
             "DiagGaussian size mismatch");
  d_mean.resize(mean.size());
  d_log_std.resize(mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double sd = math::exp(log_std[i]);
    const double z = (x[i] - mean[i]) / sd;
    d_mean[i] = z / sd;
    d_log_std[i] = z * z - 1.0;
  }
}

void SquashedGaussian::sample(const Vec& mean, const Vec& log_std, Rng& rng,
                              Draw& out) {
  DARL_CHECK(mean.size() == log_std.size(), "mean/log_std size mismatch");
  const std::size_t n = mean.size();
  out.noise.resize(n);
  out.pre_tanh.resize(n);
  out.action.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.noise[i] = rng.normal();
    out.pre_tanh[i] = mean[i] + math::exp(log_std[i]) * out.noise[i];
    out.action[i] = math::tanh(out.pre_tanh[i]);
  }
  out.log_prob = log_prob(mean, log_std, out.pre_tanh);
}

double SquashedGaussian::log_prob(const Vec& mean, const Vec& log_std,
                                  const Vec& pre_tanh) {
  double lp = DiagGaussian::log_prob(mean, log_std, pre_tanh);
  for (double z : pre_tanh) {
    const double t = math::tanh(z);
    lp -= math::log(1.0 - t * t + kEps);
  }
  return lp;
}

void SquashedGaussian::pathwise_grad(const Vec& mean, const Vec& log_std,
                                     const Vec& pre_tanh, const Vec& noise,
                                     double c_logp, const Vec& grad_action,
                                     Vec& d_mean, Vec& d_log_std) {
  const std::size_t n = mean.size();
  DARL_CHECK(log_std.size() == n && pre_tanh.size() == n && noise.size() == n &&
                 grad_action.size() == n,
             "pathwise_grad size mismatch");
  d_mean.resize(n);
  d_log_std.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = math::tanh(pre_tanh[i]);
    const double sech2 = 1.0 - t * t;
    // d log pi / dz = 2 t sech^2 / (sech^2 + kEps)   (from -log(sech^2+eps))
    const double dlogp_dz = 2.0 * t * sech2 / (sech2 + kEps);
    // dL/dz: logp path + action path through a = tanh(z).
    const double dz = c_logp * dlogp_dz + grad_action[i] * sech2;
    d_mean[i] = dz;  // dz/dmean = 1
    const double sd = math::exp(log_std[i]);
    // dz/dlog_std = sd * eps; plus the direct -1 term of the Gaussian
    // log-density in log_std.
    d_log_std[i] = dz * sd * noise[i] - c_logp;
  }
}

}  // namespace darl::nn
