#include "darl/serve/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/obs/metrics.hpp"

namespace darl::serve {
namespace {

/// Label value for a tenant: the unnamed back-compat tenant renders as
/// "default" so exported series never carry an empty label value.
std::string tenant_label(const std::string& name) {
  return name.empty() ? std::string("default") : name;
}

std::size_t shed_threshold(double fraction, std::size_t capacity) {
  if (fraction >= 1.0) return SIZE_MAX;  // never shed this lane
  const double raw = fraction * static_cast<double>(capacity);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(raw)));
}

}  // namespace

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::Control:
      return "control";
    case Priority::High:
      return "high";
    case Priority::Normal:
      return "normal";
    case Priority::Low:
      return "low";
  }
  return "unknown";
}

Router::Router(const PolicyStore& store, RouterConfig config)
    : config_(std::move(config)) {
  DARL_CHECK(config_.shards >= 1, "router needs at least one shard");
  DARL_CHECK(config_.shed_low <= config_.shed_normal &&
                 config_.shed_normal <= config_.shed_high,
             "shed watermarks must be ordered low <= normal <= high");
  const std::vector<std::string> names = store.tenant_names();
  DARL_CHECK(!names.empty(),
             "PolicyStore has no published tenants to route to");

  obs::Registry& registry = obs::Registry::global();
  for (const std::string& name : names) {
    auto group = std::make_unique<TenantGroup>();
    group->name = name;
    group->quota.store(config_.default_quota, std::memory_order_relaxed);
    const std::string label = tenant_label(name);
    group->requests_ctr =
        &registry.counter("serve.router_requests", {{"tenant", label}});
    group->rejected_quota_ctr =
        &registry.counter("serve.rejected_quota", {{"tenant", label}});
    group->shed_depth[static_cast<std::size_t>(Priority::Control)] = SIZE_MAX;
    group->shed_depth[static_cast<std::size_t>(Priority::High)] =
        shed_threshold(config_.shed_high, config_.shard.queue_capacity);
    group->shed_depth[static_cast<std::size_t>(Priority::Normal)] =
        shed_threshold(config_.shed_normal, config_.shard.queue_capacity);
    group->shed_depth[static_cast<std::size_t>(Priority::Low)] =
        shed_threshold(config_.shed_low, config_.shard.queue_capacity);
    for (const Priority priority :
         {Priority::High, Priority::Normal, Priority::Low}) {
      group->shed_ctr[static_cast<std::size_t>(priority)] = &registry.counter(
          "serve.shed", {{"tenant", label},
                         {"priority", priority_name(priority)}});
    }
    group->shards.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      ServeConfig shard_config = config_.shard;
      shard_config.tenant = name;
      shard_config.labels = {{"tenant", label},
                             {"shard", std::to_string(s)}};
      group->shards.push_back(
          std::make_unique<BatchScheduler>(store, std::move(shard_config)));
    }
    tenants_.emplace(name, std::move(group));
  }
}

Router::~Router() { shutdown(); }

std::size_t Router::shard_for(std::uint64_t key) const {
  // fnv1a64 over the key's little-endian bytes: stable across processes
  // and platforms we target, so session -> shard assignments survive
  // restarts (replica caches stay warm for returning sessions).
  char bytes[sizeof(key)];
  std::memcpy(bytes, &key, sizeof(key));
  return static_cast<std::size_t>(fnv1a64(std::string(bytes, sizeof(key))) %
                                  config_.shards);
}

Router::TenantGroup* Router::find_tenant(
    const std::string& tenant_name) const {
  // tenants_ is immutable after construction, so lookups need no lock.
  const auto it = tenants_.find(tenant_name);
  return it != tenants_.end() ? it->second.get() : nullptr;
}

Response Router::serve(const std::string& tenant_name, std::uint64_t key,
                       const Vec& obs, Priority priority, double deadline_us) {
  TenantGroup* group = find_tenant(tenant_name);
  DARL_CHECK(group != nullptr,
             "router has no tenant '" << tenant_name
                                      << "' (tenants are fixed at "
                                         "construction)");
  Stopwatch stopwatch;
  if (obs::metrics_enabled()) group->requests_ctr->add(1);
  BatchScheduler& scheduler = *group->shards[shard_for(key)];

  // Admission order: quota first (a tenant over its quota is shed work no
  // matter how idle the shard is), then priority shedding against the
  // target shard's live queue depth.
  const std::size_t quota = group->quota.load(std::memory_order_relaxed);
  const bool counted = quota > 0;
  if (counted &&
      group->in_flight.fetch_add(1, std::memory_order_relaxed) + 1 > quota) {
    group->in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) group->rejected_quota_ctr->add(1);
    Response response;
    response.outcome = Outcome::RejectedQuota;
    response.latency_us = stopwatch.seconds() * 1e6;
    return response;
  }

  if (scheduler.queue_depth() >=
      group->shed_depth[static_cast<std::size_t>(priority)]) {
    if (counted) group->in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      group->shed_ctr[static_cast<std::size_t>(priority)]->add(1);
    }
    Response response;
    response.outcome = Outcome::Shed;
    response.latency_us = stopwatch.seconds() * 1e6;
    return response;
  }

  Response response = scheduler.serve(obs, deadline_us);
  if (counted) group->in_flight.fetch_sub(1, std::memory_order_relaxed);
  return response;
}

void Router::set_quota(const std::string& tenant_name, std::size_t quota) {
  TenantGroup* group = find_tenant(tenant_name);
  DARL_CHECK(group != nullptr,
             "router has no tenant '" << tenant_name << "'");
  group->quota.store(quota, std::memory_order_relaxed);
}

void Router::shutdown() {
  for (auto& [name, group] : tenants_) {
    for (auto& scheduler : group->shards) scheduler->shutdown();
  }
}

std::vector<std::string> Router::tenant_names() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, group] : tenants_) names.push_back(name);
  return names;
}

BatchScheduler* Router::shard(const std::string& tenant_name,
                              std::size_t index) {
  TenantGroup* group = find_tenant(tenant_name);
  if (group == nullptr || index >= group->shards.size()) return nullptr;
  return group->shards[index].get();
}

std::size_t Router::queue_depth(const std::string& tenant_name,
                                std::size_t index) const {
  const TenantGroup* group = find_tenant(tenant_name);
  DARL_CHECK(group != nullptr && index < group->shards.size(),
             "queue_depth: unknown tenant/shard");
  return group->shards[index]->queue_depth();
}

}  // namespace darl::serve
