#include "darl/serve/policy_store.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/trace.hpp"

namespace darl::serve {
namespace {

/// Scalar parameter count of an Mlp with the given layer sizes (weights
/// plus biases per layer) — computed without constructing the network.
std::size_t mlp_param_count(const std::vector<std::size_t>& sizes) {
  std::size_t n = 0;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    n += sizes[l + 1] * sizes[l] + sizes[l + 1];
  }
  return n;
}

std::vector<std::size_t> layer_sizes(std::size_t in,
                                     const std::vector<std::size_t>& hidden,
                                     std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::uint64_t digest_params(const Vec& params) {
  const std::string bytes(reinterpret_cast<const char*>(params.data()),
                          params.size() * sizeof(double));
  return fnv1a64(bytes);
}

}  // namespace

std::size_t PolicySpec::action_dim() const {
  switch (decode) {
    case GreedyDecode::Raw:
      return sizes.back();
    case GreedyDecode::ArgmaxDiscrete:
      return 1;
    case GreedyDecode::ClipBox:
    case GreedyDecode::SquashedMeanBox:
      return action_space.box().dim();
  }
  return sizes.back();
}

PolicySpec policy_spec_from_checkpoint(
    const rl::Checkpoint& checkpoint, const env::ActionSpace& action_space,
    const std::vector<std::size_t>& hidden) {
  if (checkpoint.obs_dim == 0) {
    throw rl::CheckpointError("checkpoint has zero observation dimension");
  }
  if (checkpoint.action_dim != action_space.action_dim()) {
    throw rl::CheckpointError(
        "checkpoint action_dim " + std::to_string(checkpoint.action_dim) +
        " does not match the action space (" +
        std::to_string(action_space.action_dim()) + ")");
  }

  PolicySpec spec;
  spec.action_space = action_space;
  std::size_t tail = 0;  // non-network trailing parameters (log-std)
  switch (checkpoint.kind) {
    case rl::AlgoKind::PPO:
    case rl::AlgoKind::IMPALA:
      if (action_space.is_discrete()) {
        spec.sizes = layer_sizes(checkpoint.obs_dim, hidden,
                                 action_space.discrete().n());
        spec.decode = GreedyDecode::ArgmaxDiscrete;
      } else {
        spec.sizes =
            layer_sizes(checkpoint.obs_dim, hidden, action_space.box().dim());
        spec.decode = GreedyDecode::ClipBox;
        tail = action_space.box().dim();  // state-independent log-std
      }
      break;
    case rl::AlgoKind::SAC:
      if (!action_space.is_box()) {
        throw rl::CheckpointError("SAC checkpoints require a box action space");
      }
      spec.sizes = layer_sizes(checkpoint.obs_dim, hidden,
                               2 * action_space.box().dim());
      spec.decode = GreedyDecode::SquashedMeanBox;
      break;
  }

  const std::size_t net_n = mlp_param_count(spec.sizes);
  if (checkpoint.params.size() != net_n + tail) {
    throw rl::CheckpointError(
        "checkpoint holds " + std::to_string(checkpoint.params.size()) +
        " parameters but the " + std::string(rl::algo_name(checkpoint.kind)) +
        " architecture expects " + std::to_string(net_n + tail) +
        " (wrong --hidden sizes?)");
  }
  spec.net_params.assign(checkpoint.params.begin(),
                         checkpoint.params.begin() +
                             static_cast<std::ptrdiff_t>(net_n));
  return spec;
}

void decode_head(const PolicySpec& spec, const double* head, Vec& out) {
  switch (spec.decode) {
    case GreedyDecode::Raw: {
      const std::size_t n = spec.sizes.back();
      std::copy(head, head + n, out.begin());
      return;
    }
    case GreedyDecode::ArgmaxDiscrete: {
      // Bitwise replica of the PPO/IMPALA actors' act_greedy: stable
      // softmax, then the *first* largest probability wins (max_element
      // semantics). The softmax values are recomputed scalar-by-scalar in
      // the same order as nn::Categorical::softmax, so rounding ties
      // resolve identically — without allocating a probability vector.
      const std::size_t n = spec.action_space.discrete().n();
      double m = head[0];
      for (std::size_t i = 1; i < n; ++i) m = std::max(m, head[i]);
      double z = 0.0;
      for (std::size_t i = 0; i < n; ++i) z += std::exp(head[i] - m);
      std::size_t best = 0;
      double best_p = std::exp(head[0] - m) / z;
      for (std::size_t i = 1; i < n; ++i) {
        const double p = std::exp(head[i] - m) / z;
        if (p > best_p) {
          best = i;
          best_p = p;
        }
      }
      out[0] = static_cast<double>(best);
      return;
    }
    case GreedyDecode::ClipBox: {
      const env::BoxSpace& box = spec.action_space.box();
      for (std::size_t i = 0; i < box.dim(); ++i) {
        out[i] = std::clamp(head[i], box.low()[i], box.high()[i]);
      }
      return;
    }
    case GreedyDecode::SquashedMeanBox: {
      // Same math as the SAC actor: tanh of the mean half of the head,
      // affinely scaled from [-1, 1] into the box.
      const env::BoxSpace& box = spec.action_space.box();
      for (std::size_t i = 0; i < box.dim(); ++i) {
        const double squashed = std::tanh(head[i]);
        out[i] = box.low()[i] +
                 0.5 * (squashed + 1.0) * (box.high()[i] - box.low()[i]);
      }
      return;
    }
  }
}

std::uint64_t PolicyStore::publish(PolicySpec spec) {
  return publish(std::string(), std::move(spec));
}

std::uint64_t PolicyStore::publish(const std::string& tenant_name,
                                   PolicySpec spec) {
  DARL_CHECK(spec.sizes.size() >= 2, "policy spec needs {in, ..., out} sizes");
  DARL_CHECK(spec.net_params.size() == mlp_param_count(spec.sizes),
             "policy spec has " << spec.net_params.size()
                                << " parameters, architecture expects "
                                << mlp_param_count(spec.sizes));
  DARL_SPAN("serve.publish");
  auto version = std::make_unique<PolicyVersion>();
  version->spec = std::move(spec);
  version->params_digest = digest_params(version->spec.net_params);

  std::lock_guard<std::mutex> lock(publish_mutex_);
  auto it = tenants_.find(tenant_name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant_name, std::make_unique<Tenant>(tenant_name))
             .first;
    if (tenant_name.empty()) {
      default_tenant_.store(it->second.get(), std::memory_order_release);
    }
  }
  Tenant& tenant = *it->second;
  version->id = tenant.retained_.size() + 1;
  tenant.retained_.push_back(std::move(version));
  // Release pairs with the acquire in Tenant::current(): a reader that
  // sees the new pointer sees the fully constructed version behind it.
  tenant.current_.store(tenant.retained_.back().get(),
                        std::memory_order_release);
  DARL_COUNTER_ADD("serve.swaps", 1);
  return tenant.retained_.back()->id;
}

std::uint64_t PolicyStore::publish_checkpoint(
    const rl::Checkpoint& checkpoint, const env::ActionSpace& action_space,
    const std::vector<std::size_t>& hidden) {
  return publish(policy_spec_from_checkpoint(checkpoint, action_space, hidden));
}

std::uint64_t PolicyStore::publish_checkpoint(
    const std::string& tenant_name, const rl::Checkpoint& checkpoint,
    const env::ActionSpace& action_space,
    const std::vector<std::size_t>& hidden) {
  return publish(tenant_name,
                 policy_spec_from_checkpoint(checkpoint, action_space, hidden));
}

const PolicyStore::Tenant* PolicyStore::tenant(
    const std::string& tenant_name) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  const auto it = tenants_.find(tenant_name);
  return it != tenants_.end() ? it->second.get() : nullptr;
}

std::vector<std::string> PolicyStore::tenant_names() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

std::uint64_t PolicyStore::version_count() const {
  return version_count(std::string());
}

std::uint64_t PolicyStore::version_count(
    const std::string& tenant_name) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  const auto it = tenants_.find(tenant_name);
  return it != tenants_.end() ? it->second->retained_.size() : 0;
}

DirectPolicy::DirectPolicy(const PolicySpec& spec)
    : spec_(spec), net_([&] {
        Rng init(0);
        return nn::Mlp(spec.sizes, spec.activation, init);
      }()) {
  net_.set_flat_params(spec_.net_params);
  action_.assign(spec_.action_dim(), 0.0);
}

Vec DirectPolicy::act(const Vec& obs) {
  const Vec head = net_.evaluate(obs);
  decode_head(spec_, head.data(), action_);
  return action_;
}

}  // namespace darl::serve
