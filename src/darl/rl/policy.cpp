#include "darl/rl/policy.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/error.hpp"
#include "darl/common/kernel.hpp"

namespace darl::rl {

std::vector<std::size_t> mlp_sizes(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::size_t head_width(PolicyHead head, const env::ActionSpace& space) {
  if (head == PolicyHead::Categorical) {
    DARL_CHECK(space.is_discrete(), "a categorical policy head cannot act in "
                                        << space.describe());
    return space.discrete().n();
  }
  DARL_CHECK(space.is_box(),
             "a Gaussian policy head cannot act in " << space.describe());
  return head == PolicyHead::Gaussian ? space.box().dim()
                                      : 2 * space.box().dim();
}

PolicyShape policy_shape(AlgoKind kind, std::size_t obs_dim,
                         const env::ActionSpace& space,
                         const std::vector<std::size_t>& hidden) {
  PolicyShape shape;
  if (kind == AlgoKind::SAC) {
    shape.activation = nn::Activation::ReLU;
    shape.head = PolicyHead::SquashedGaussian;
  } else if (space.is_box()) {
    shape.head = PolicyHead::Gaussian;
    shape.tail = space.box().dim();  // state-independent log-std
  }
  shape.sizes = mlp_sizes(obs_dim, hidden, head_width(shape.head, space));
  return shape;
}

DARL_KERNEL void greedy_action(PolicyHead head, const env::ActionSpace& space,
                               const double* row, double* out) {
  switch (head) {
    case PolicyHead::Categorical: {
      // The first largest of nn::Categorical::softmax(row), each
      // probability computed in softmax's order (first maximum logit,
      // exponentials summed by index, one division each), so rounding
      // ties resolve as std::max_element over that vector would.
      const std::size_t n = space.discrete().n();
      double m = row[0];
      for (std::size_t i = 1; i < n; ++i) {
        if (m < row[i]) m = row[i];
      }
      double z = 0.0;
      for (std::size_t i = 0; i < n; ++i) z += std::exp(row[i] - m);
      std::size_t best = 0;
      double best_p = std::exp(row[0] - m) / z;
      for (std::size_t i = 1; i < n; ++i) {
        const double p = std::exp(row[i] - m) / z;
        if (best_p < p) {
          best = i;
          best_p = p;
        }
      }
      out[0] = static_cast<double>(best);
      return;
    }
    case PolicyHead::Gaussian: {
      const env::BoxSpace& box = space.box();
      for (std::size_t i = 0; i < box.dim(); ++i) {
        out[i] = std::clamp(row[i], box.low()[i], box.high()[i]);
      }
      return;
    }
    case PolicyHead::SquashedGaussian: {
      // tanh of the mean half, mapped affinely from [-1, 1] into the box.
      const env::BoxSpace& box = space.box();
      for (std::size_t i = 0; i < box.dim(); ++i) {
        out[i] = box.low()[i] +
                 0.5 * (std::tanh(row[i]) + 1.0) * (box.high()[i] - box.low()[i]);
      }
      return;
    }
  }
}

}  // namespace darl::rl
