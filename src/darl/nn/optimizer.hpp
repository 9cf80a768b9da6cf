// darl/nn/optimizer.hpp
//
// Adam over a ParamRef list, plus global gradient-norm clipping. Adam
// holds per-buffer moment state keyed by position, so the ParamRef list
// must be stable across step() calls.

#pragma once

#include <vector>

#include "darl/nn/mlp.hpp"

namespace darl::nn {

/// Adam (Kingma & Ba) with bias correction, stepping a fixed list of
/// parameter buffers.
class Adam final {
 public:
  Adam(std::vector<ParamRef> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  /// Apply one update using the gradients currently stored in the refs.
  void step();

  std::size_t steps_taken() const { return t_; }

 private:
  std::vector<ParamRef> params_;
  double lr_;
  double beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<Vec> m_, v_;
};

/// Scale gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
double clip_grad_norm(const std::vector<ParamRef>& params, double max_norm);

}  // namespace darl::nn
