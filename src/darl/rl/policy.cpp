#include "darl/rl/policy.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/kernel.hpp"
#include "darl/nn/distributions.hpp"

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
      for (std::size_t i = 0; i < n; ++i) z += math::exp(row[i] - m);
      std::size_t best = 0;
      double best_p = math::exp(row[0] - m) / z;
      for (std::size_t i = 1; i < n; ++i) {
        const double p = math::exp(row[i] - m) / z;
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
      // tanh of the mean half, mapped into the box.
      const env::BoxSpace& box = space.box();
      for (std::size_t i = 0; i < box.dim(); ++i) out[i] = math::tanh(row[i]);
      squash_to_box(box, out, out);
      return;
    }
  }
}

double head_log_prob(PolicyHead head, const env::ActionSpace& space,
                     const Vec& row, const Vec& tail, const Vec& action) {
  switch (head) {
    case PolicyHead::Categorical:
      return nn::Categorical::log_prob(row, space.discrete().decode(action));
    case PolicyHead::Gaussian:
      return nn::DiagGaussian::log_prob(row, tail, action);
    case PolicyHead::SquashedGaussian:
      break;
  }
  throw InvalidArgument("a squashed head scores its pre-tanh draw, not an action");
}

ActOutput sample_action(PolicyHead head, const env::ActionSpace& space,
                        const Vec& row, const Vec& tail, Rng& rng) {
  ActOutput out;
  switch (head) {
    case PolicyHead::Categorical:
      out.action = space.discrete().encode(nn::Categorical::sample(row, rng));
      break;
    case PolicyHead::Gaussian:
      out.action = space.box().clip(nn::DiagGaussian::sample(row, tail, rng));
      break;
    case PolicyHead::SquashedGaussian: {
      Vec mean, log_std;
      split_squashed(row.data(), space.box().dim(), mean, log_std);
      nn::SquashedGaussian::Draw draw;
      nn::SquashedGaussian::sample(mean, log_std, rng, draw);
      out.action.resize(mean.size());
      squash_to_box(space.box(), draw.action.data(), out.action.data());
      out.log_prob = draw.log_prob;
      return out;
    }
  }
  out.log_prob = head_log_prob(head, space, row, tail, out.action);
  return out;
}

void split_squashed(const double* row, std::size_t dim, Vec& mean,
                    Vec& log_std) {
  mean.assign(row, row + dim);
  log_std.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    log_std[i] = kSquashedLogStdMin +
                 0.5 * (kSquashedLogStdMax - kSquashedLogStdMin) *
                     (math::tanh(row[dim + i]) + 1.0);
  }
}

double squashed_log_std_slope(double raw) {
  const double t = math::tanh(raw);
  return 0.5 * (kSquashedLogStdMax - kSquashedLogStdMin) * (1.0 - t * t);
}

void squash_to_box(const env::BoxSpace& box, const double* squashed,
                   double* out) {
  for (std::size_t i = 0; i < box.dim(); ++i) {
    out[i] = box.low()[i] +
             0.5 * (squashed[i] + 1.0) * (box.high()[i] - box.low()[i]);
  }
}

void box_to_squash(const env::BoxSpace& box, const double* action,
                   double* out) {
  for (std::size_t i = 0; i < box.dim(); ++i) {
    const double span = box.high()[i] - box.low()[i];
    const double v =
        span > 0.0 ? 2.0 * (action[i] - box.low()[i]) / span - 1.0 : 0.0;
    out[i] = std::clamp(v, -0.999999, 0.999999);
  }
}

}  // namespace darl::rl
