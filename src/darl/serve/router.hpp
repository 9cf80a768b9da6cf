// darl/serve/router.hpp
//
// Fleet front door: a serve::Router fronts N hash-sharded BatchSchedulers
// per tenant of a multi-tenant PolicyStore. A request names its tenant, a
// routing key, and a priority lane; the router applies admission control
// (per-tenant in-flight quotas), priority load-shedding against the target
// shard's queue depth, and stable hash-sharding (fnv1a64 over the key), so
// a session's requests always land on the same shard and batch against the
// same replica cache.
//
// Overload policy (DESIGN.md §14): under open-loop traffic the queue is
// the only place excess load can go, and an unbounded queue turns a
// transient burst into a permanent latency cliff. The router instead sheds
// *before* enqueueing, lowest priority first — a Low request is dropped
// once its shard's queue reaches shed_low x capacity, Normal at
// shed_normal, High at shed_high, and Control traffic (health probes,
// ops tooling) is never shed, only rejected by the hard queue capacity
// like everything else. Shedding happens at the router so a shed request
// costs a queue-depth read, not a queue slot.
//
// Every scheduler shard keeps the DESIGN.md §12 bitwise contract: a served
// action is identical to per-sample Mlp::evaluate + greedy decode on the
// tenant's current version, no matter which shard or micro-batch it rode.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "darl/serve/batch_scheduler.hpp"

namespace darl::serve {

/// Priority lanes, strongest-first. Control is for health/ops traffic
/// that must survive overload; Low is the first lane shed.
enum class Priority { Control = 0, High = 1, Normal = 2, Low = 3 };
inline constexpr std::size_t kPriorityCount = 4;

const char* priority_name(Priority priority);

/// Fleet tuning knobs.
struct RouterConfig {
  /// Hash shards per tenant. Each shard is a full BatchScheduler (own
  /// queue, own worker pool, own labeled metrics).
  std::size_t shards = 2;
  /// Per-shard scheduler template. tenant and labels are stamped by the
  /// router for each tenant x shard; the rest applies verbatim.
  ServeConfig shard;
  /// Load-shedding watermarks as fractions of the shard queue capacity:
  /// a request is shed when its target shard's queue depth has reached
  /// watermark x queue_capacity. Control traffic never sheds.
  double shed_low = 0.50;
  double shed_normal = 0.75;
  double shed_high = 0.90;
  /// Per-tenant in-flight admission quota applied before shedding
  /// (0 = unlimited). Override per tenant with set_quota().
  std::size_t default_quota = 0;
};

/// Router over one PolicyStore: one shard group per tenant that had
/// published a version when the router was constructed. serve() may be
/// called from any number of client threads; shutdown() drains every
/// shard and is idempotent.
class Router {
 public:
  Router(const PolicyStore& store, RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Serve one observation for `tenant_name` (the unnamed tenant is "").
  /// `key` picks the shard (stable fnv1a64 hash — same key, same shard,
  /// forever). Unknown tenants are contract violations and throw; every
  /// overload condition is a typed Outcome.
  Response serve(const std::string& tenant_name, std::uint64_t key,
                 const Vec& obs, Priority priority = Priority::Normal,
                 double deadline_us = 0.0);

  /// Shard index `key` routes to (exposed for tests and ops tooling).
  std::size_t shard_for(std::uint64_t key) const;

  /// Replace a tenant's in-flight quota (0 = unlimited).
  void set_quota(const std::string& tenant_name, std::size_t quota);

  /// Stop accepting, drain every shard, join all workers. Idempotent.
  void shutdown();

  std::size_t shard_count() const { return config_.shards; }
  std::vector<std::string> tenant_names() const;

  /// Direct access to one shard scheduler (tests/diagnostics); nullptr
  /// for unknown tenants.
  BatchScheduler* shard(const std::string& tenant_name, std::size_t index);

  /// Queued requests on one shard (diagnostics/tests).
  std::size_t queue_depth(const std::string& tenant_name,
                          std::size_t index) const;

 private:
  /// One tenant's slice of the fleet. Immutable map shape after
  /// construction: lookups are lock-free reads.
  struct TenantGroup {
    std::string name;
    std::vector<std::unique_ptr<BatchScheduler>> shards;
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> quota{0};
    /// Shed when depth >= shed_depth[priority] (Control = SIZE_MAX).
    std::array<std::size_t, kPriorityCount> shed_depth{};
    obs::Counter* requests_ctr = nullptr;
    obs::Counter* rejected_quota_ctr = nullptr;
    std::array<obs::Counter*, kPriorityCount> shed_ctr{};
  };

  TenantGroup* find_tenant(const std::string& tenant_name) const;

  RouterConfig config_;
  // Concurrency discipline (darl_verify): the router deliberately owns no
  // mutex, so nothing here carries DARL_GUARDED_BY — tenants_ is frozen
  // at construction (lock-free lookups), and all mutable state above is
  // atomics with explicit memory_order (the naked-atomic-ordering rule
  // keeps it that way). Blocking and queueing live in BatchScheduler.
  std::map<std::string, std::unique_ptr<TenantGroup>> tenants_;
};

}  // namespace darl::serve
