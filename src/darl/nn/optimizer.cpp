#include "darl/nn/optimizer.hpp"

#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/kernel.hpp"

namespace darl::nn {

Adam::Adam(std::vector<ParamRef> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  DARL_CHECK(!params_.empty(), "optimizer with no parameters");
  DARL_CHECK(lr > 0.0, "learning rate must be positive");
  for (const auto& p : params_) {
    DARL_CHECK(p.value != nullptr && p.grad != nullptr, "null ParamRef");
    DARL_CHECK(p.value->size() == p.grad->size(),
               "param/grad size mismatch for '" << p.name << "'");
  }
  DARL_CHECK(beta1 >= 0.0 && beta1 < 1.0, "beta1 out of [0,1)");
  DARL_CHECK(beta2 >= 0.0 && beta2 < 1.0, "beta2 out of [0,1)");
  DARL_CHECK(eps > 0.0, "eps must be positive");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->size(), 0.0);
    v_.emplace_back(p.value->size(), 0.0);
  }
}

DARL_KERNEL void Adam::step() {
  ++t_;
  const double b1 = beta1_, b2 = beta2_, lr = lr_, eps = eps_;
  const double bc1 = 1.0 - math::pow(b1, static_cast<double>(t_));
  const double bc2 = 1.0 - math::pow(b2, static_cast<double>(t_));
  // Elementwise and branch-free, so the loop vectorises at -O3 (darl_nn
  // builds with -fno-math-errno, which lets std::sqrt become vsqrtpd).
  // IEEE division and square root are correctly rounded at every width,
  // so the bits are the scalar loop's.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    double* __restrict w = params_[i].value->data();
    const double* __restrict g = params_[i].grad->data();
    double* __restrict m = m_[i].data();
    double* __restrict v = v_[i].data();
    const std::size_t n = m_[i].size();
    for (std::size_t j = 0; j < n; ++j) {
      m[j] = b1 * m[j] + (1.0 - b1) * g[j];
      v[j] = b2 * v[j] + (1.0 - b2) * g[j] * g[j];
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

double clip_grad_norm(const std::vector<ParamRef>& params, double max_norm) {
  DARL_CHECK(max_norm > 0.0, "max_norm must be positive");
  double sq = 0.0;
  for (const auto& p : params) {
    for (double g : *p.grad) sq += g * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (auto& p : params) {
      for (double& g : *p.grad) g *= scale;
    }
  }
  return norm;
}

}  // namespace darl::nn
