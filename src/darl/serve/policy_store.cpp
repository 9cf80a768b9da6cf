#include "darl/serve/policy_store.hpp"

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

/// Reject a spec whose parameters do not fill its layers or whose head
/// cannot be decoded from its output layer over its action space.
void check_servable(const PolicySpec& spec) {
  DARL_CHECK(spec.sizes.size() >= 2, "policy spec needs {in, ..., out} sizes");
  DARL_CHECK(spec.net_params.size() == mlp_param_count(spec.sizes),
             "policy spec has " << spec.net_params.size()
                                << " parameters, architecture expects "
                                << mlp_param_count(spec.sizes));
  const std::size_t width = rl::head_width(spec.head, spec.action_space);
  DARL_CHECK(spec.sizes.back() == width,
             "policy output layer is " << spec.sizes.back()
                                       << " wide, its head decodes " << width
                                       << " values over "
                                       << spec.action_space.describe());
}

std::uint64_t digest_params(const Vec& params) {
  const std::string bytes(reinterpret_cast<const char*>(params.data()),
                          params.size() * sizeof(double));
  return fnv1a64(bytes);
}

}  // namespace

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

  const rl::PolicyShape shape = rl::policy_shape(
      checkpoint.kind, checkpoint.obs_dim, action_space, hidden);
  PolicySpec spec;
  spec.sizes = shape.sizes;
  spec.activation = shape.activation;
  spec.action_space = action_space;
  spec.head = shape.head;

  const std::size_t net_n = mlp_param_count(spec.sizes);
  if (checkpoint.params.size() != net_n + shape.tail) {
    throw rl::CheckpointError(
        "checkpoint holds " + std::to_string(checkpoint.params.size()) +
        " parameters but the " + std::string(rl::algo_name(checkpoint.kind)) +
        " architecture expects " + std::to_string(net_n + shape.tail) +
        " (wrong --hidden sizes?)");
  }
  spec.net_params.assign(checkpoint.params.begin(),
                         checkpoint.params.begin() +
                             static_cast<std::ptrdiff_t>(net_n));
  return spec;
}

std::uint64_t PolicyStore::publish(PolicySpec spec) {
  return publish(std::string(), std::move(spec));
}

std::uint64_t PolicyStore::publish(const std::string& tenant_name,
                                   PolicySpec spec) {
  check_servable(spec);
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
  if (!tenant.retained_.empty()) {
    // Hot-swap contract: a tenant's schedulers size their requests and
    // actions from the version they were built with.
    const PolicySpec& live = tenant.retained_.back()->spec;
    const PolicySpec& next = version->spec;
    DARL_CHECK(next.input_dim() == live.input_dim() &&
                   next.action_space.action_dim() == live.action_space.action_dim(),
               "tenant '" << tenant_name << "' serves " << live.input_dim()
                          << "-dim observations and "
                          << live.action_space.action_dim()
                          << "-dim actions; the new version has "
                          << next.input_dim() << " and "
                          << next.action_space.action_dim());
  }
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
        check_servable(spec);
        Rng init(0);
        return nn::Mlp(spec.sizes, spec.activation, init);
      }()) {
  net_.set_flat_params(spec_.net_params);
  action_.assign(spec_.action_space.action_dim(), 0.0);
}

Vec DirectPolicy::act(const Vec& obs) {
  const Vec head = net_.evaluate(obs);
  rl::greedy_action(spec_.head, spec_.action_space, head.data(),
                    action_.data());
  return action_;
}

}  // namespace darl::serve
