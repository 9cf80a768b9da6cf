// darl/serve/policy_store.hpp
//
// Versioned, multi-tenant policy storage for the inference fleet. A
// PolicyStore hosts many *named* policies (tenants); each tenant holds an
// immutable chain of published PolicyVersions. Readers obtain a tenant's
// current version with a single acquire load (no lock, no reference
// count), writers publish a new version under a mutex. Old versions are
// retained for the store's lifetime, so a dispatcher that grabbed version
// N keeps a valid pointer while version N+1 goes live — in-flight
// micro-batches finish on the version they started with, which is exactly
// the hot-swap contract the serving layer documents (DESIGN.md §12).
//
// The unnamed tenant "" is the single-policy back-compat path: publish()
// and current() without a name read and write it, so pre-fleet call sites
// keep working unchanged. Version ids are monotonic *per tenant* (first
// publish = 1): hot-swapping tenant A never advances tenant B's ids.
//
// A version is *data only* (network shape + flat parameters + head kind,
// decoded by rl::greedy_action like the trained actor): nn::Mlp instances
// are not safe for concurrent evaluation, so each scheduler worker
// materializes its own Mlp replica from the spec and refreshes it when the
// version id changes.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "darl/common/thread_safety.hpp"
#include "darl/env/space.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/rl/policy.hpp"

namespace darl::serve {

/// Everything needed to serve one policy: the Mlp architecture, its flat
/// parameters, and how its head is decoded. Immutable once published.
struct PolicySpec {
  std::vector<std::size_t> sizes;  ///< Mlp layer sizes {in, hidden..., out}
  nn::Activation activation = nn::Activation::Tanh;
  Vec net_params;                  ///< flat Mlp parameters (no extras)
  env::ActionSpace action_space;
  rl::PolicyHead head = rl::PolicyHead::Categorical;

  std::size_t input_dim() const { return sizes.front(); }
};

/// Build a servable spec from a saved checkpoint: sizes, activation and
/// head come from rl::policy_shape, so serving runs the network the
/// checkpoint's learner trained. `hidden` must match the architecture the
/// checkpoint was trained with (the algorithms' default is {64, 64}); a
/// parameter-count mismatch raises rl::CheckpointError, an action space
/// the checkpoint's policy cannot act in raises InvalidArgument. The
/// PPO/IMPALA Gaussian log-std tail is split off (greedy decoding never
/// reads it).
PolicySpec policy_spec_from_checkpoint(
    const rl::Checkpoint& checkpoint, const env::ActionSpace& action_space,
    const std::vector<std::size_t>& hidden = {64, 64});

/// One published policy. Immutable; identified by a monotonically
/// increasing id (first publish = 1).
struct PolicyVersion {
  std::uint64_t id = 0;
  PolicySpec spec;
  std::uint64_t params_digest = 0;  ///< fnv1a64 over net_params bytes
};

/// Versioned, swap-under-traffic, multi-tenant policy holder.
///
/// Thread safety: Tenant::current() is safe from any thread and lock-free
/// (one acquire load); publish() serializes writers on an internal mutex.
/// The release store in publish() pairs with the acquire load in
/// current(), so a reader that observes version N also observes N's fully
/// constructed spec. Published versions stay valid until the store is
/// destroyed (retention is one heap object per publish — swaps are rare
/// events, so this is cheap insurance against use-after-swap). Tenant
/// handles returned by tenant() are likewise stable for the store's
/// lifetime, so a scheduler resolves its tenant once at construction and
/// reads lock-free forever after.
class PolicyStore {
 public:
  /// Stable per-tenant handle: the lock-free read side of one named
  /// policy's version chain.
  class Tenant {
   public:
    /// Constructed by PolicyStore::publish on a tenant's first publish;
    /// standalone instances hold an empty chain and serve no one.
    explicit Tenant(std::string name) : name_(std::move(name)) {}

    /// The tenant's latest published version, or nullptr before its first
    /// publish. The pointer stays valid for the store's lifetime.
    const PolicyVersion* current() const {
      return current_.load(std::memory_order_acquire);
    }
    const std::string& name() const { return name_; }

   private:
    friend class PolicyStore;
    std::string name_;
    std::atomic<const PolicyVersion*> current_{nullptr};
    /// Owned version chain; mutated only under the store's publish_mutex_
    /// (readers go through the lock-free `current_` pointer instead).
    std::vector<std::unique_ptr<PolicyVersion>> retained_
        DARL_GUARDED_BY(publish_mutex_);
  };

  PolicyStore() = default;
  PolicyStore(const PolicyStore&) = delete;
  PolicyStore& operator=(const PolicyStore&) = delete;

  /// Publish a new version for the unnamed tenant; returns its id. The
  /// new version becomes visible to current() before publish() returns.
  /// Throws InvalidArgument unless the parameters fill `sizes` and the
  /// head can decode over the action space at the width of the output
  /// layer — and, on a tenant that already has a version, unless the spec
  /// keeps that version's input width and action width (the interface its
  /// schedulers were built for). A rejected spec stores nothing.
  std::uint64_t publish(PolicySpec spec);

  /// Publish a new version for a named tenant (created on first publish).
  std::uint64_t publish(const std::string& tenant_name, PolicySpec spec);

  /// Convenience: derive the spec from a checkpoint and publish it.
  std::uint64_t publish_checkpoint(
      const rl::Checkpoint& checkpoint, const env::ActionSpace& action_space,
      const std::vector<std::size_t>& hidden = {64, 64});
  std::uint64_t publish_checkpoint(
      const std::string& tenant_name, const rl::Checkpoint& checkpoint,
      const env::ActionSpace& action_space,
      const std::vector<std::size_t>& hidden = {64, 64});

  /// The unnamed tenant's latest published version, or nullptr before the
  /// first publish. The pointer stays valid for the store's lifetime.
  const PolicyVersion* current() const {
    const Tenant* t = default_tenant_.load(std::memory_order_acquire);
    return t != nullptr ? t->current() : nullptr;
  }

  /// A named tenant's latest version (nullptr if it never published).
  const PolicyVersion* current(const std::string& tenant_name) const {
    const Tenant* t = tenant(tenant_name);
    return t != nullptr ? t->current() : nullptr;
  }

  /// Stable handle for a named tenant, or nullptr if it never published.
  const Tenant* tenant(const std::string& tenant_name) const;

  /// Names of every tenant that has published, sorted.
  std::vector<std::string> tenant_names() const;

  /// Versions published so far by the unnamed / a named tenant.
  std::uint64_t version_count() const;
  std::uint64_t version_count(const std::string& tenant_name) const;

 private:
  mutable std::mutex publish_mutex_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_
      DARL_GUARDED_BY(publish_mutex_);
  std::atomic<const Tenant*> default_tenant_{nullptr};
};

/// Reference single-observation inference path: per-sample Mlp::evaluate
/// plus rl::greedy_action, with no batching anywhere. Tests, the CLI
/// self-check and the deploy example compare served actions against this
/// bitwise. Not thread-safe (owns one Mlp workspace); make one per thread.
class DirectPolicy {
 public:
  /// Validates `spec` as PolicyStore::publish does.
  explicit DirectPolicy(const PolicySpec& spec);

  /// Greedy action for one observation.
  Vec act(const Vec& obs);

 private:
  PolicySpec spec_;
  nn::Mlp net_;
  Vec action_;
};

}  // namespace darl::serve
