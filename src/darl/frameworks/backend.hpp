// darl/frameworks/backend.hpp
//
// The framework-backend interface and the three implementations mirroring
// the architectures the paper attributes to Ray RLlib, Stable Baselines and
// TF-Agents. Backends execute real training (threads, environments, neural
// updates) while replaying their coordination structure against the
// simulated cluster for the time/energy metrics. The frameworks differ only
// in their schedule (worker layout, parameter versions, where inference is
// charged) and cost table; one loop runs them all.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "darl/frameworks/costs.hpp"
#include "darl/frameworks/types.hpp"
#include "darl/frameworks/worker.hpp"
#include "darl/simcluster/cluster.hpp"

namespace darl::frameworks {

/// A training-framework backend: runs one TrainRequest end to end.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual FrameworkKind kind() const = 0;
  const char* name() const { return framework_name(kind()); }

  /// Execute the training job. Throws darl::InvalidArgument when the
  /// deployment is not supported by this framework (e.g. multi-node
  /// Stable Baselines — the paper's frameworks differ exactly here).
  virtual TrainResult run(const TrainRequest& request) = 0;
};

/// Where nodes 1..N-1 of a run live: how weights reach their workers and
/// how their batches come back. BackendBase::run_schedule drives every
/// placement through the same loop (DESIGN.md §17 "One schedule").
class RemoteNodes {
 public:
  /// What the loop knows about a run when it opens the placement.
  struct Run {
    const TrainRequest& request;
    const rl::Algorithm& algo;
    std::size_t obs_dim;
    std::size_t action_dim;
    std::size_t per_worker;  ///< transitions per worker per iteration
  };

  RemoteNodes() = default;
  RemoteNodes(const RemoteNodes&) = delete;
  RemoteNodes& operator=(const RemoteNodes&) = delete;
  virtual ~RemoteNodes() = default;

  /// Hand parameter version `version` (= `params`) to every remote worker;
  /// the remote nodes start collecting on it.
  virtual void sync(std::uint64_t version, const Vec& params) = 0;

  /// Wait for this iteration's batches: one per remote worker, in global
  /// worker-id order.
  virtual std::vector<net::BatchMsg> collect() = 0;

  /// Orderly end of a completed run (error paths unwind in the destructor).
  virtual void finish() {}
};

/// Opens the placement of a run's remote nodes.
using PlaceRemote =
    std::function<std::unique_ptr<RemoteNodes>(const RemoteNodes::Run&)>;

/// Shared machinery of the backends: the one training loop.
class BackendBase : public Backend {
 public:
  /// Train with nodes 1..N-1 as in-process workers on threads.
  TrainResult run(const TrainRequest& request) override;

 protected:
  explicit BackendBase(BackendCosts costs) : costs_(costs) {}

  /// The training loop of every framework: probe, build the algorithm and
  /// node 0's workers, then per iteration sync -> collect -> sample
  /// shipping -> learn with a SimCluster replay, then evaluate. The
  /// schedule comes from kind() and the deployment; `place` decides where
  /// nodes 1..N-1 run.
  TrainResult run_schedule(const TrainRequest& request,
                           const PlaceRemote& place) const;

  BackendCosts costs_;
};

/// Ray-RLlib-style distributed actor/learner: one rollout worker per core
/// on every node, samples shipped to the learner on node 0, parameter
/// broadcasts to remote nodes. On more than one node the workers act with
/// stale policy snapshots (asynchronous shipping), the mechanism behind the
/// paper's multi-node reward-reproducibility caveat. Supports 1..N nodes.
class RllibBackend final : public BackendBase {
 public:
  explicit RllibBackend(BackendCosts costs = default_costs(FrameworkKind::RayRllib))
      : BackendBase(costs) {}
  FrameworkKind kind() const override { return FrameworkKind::RayRllib; }
};

/// Stable-Baselines-style single-node vectorized training: the vectorized
/// environment per CPU core runs as one rollout worker per core, inference
/// is charged batched on the driver, and the learner updates every
/// `steps_per_env` steps per worker — so the total batch (and hence the
/// update frequency per sample) scales with the core count.
class StableBaselinesBackend final : public BackendBase {
 public:
  explicit StableBaselinesBackend(
      BackendCosts costs = default_costs(FrameworkKind::StableBaselines))
      : BackendBase(costs) {}
  FrameworkKind kind() const override { return FrameworkKind::StableBaselines; }
};

/// TF-Agents-style single-node parallel driver: a fixed total collection
/// batch spread over per-core environment workers, batched inference, and
/// graph-compiled (cheap) learner updates.
class TfAgentsBackend final : public BackendBase {
 public:
  explicit TfAgentsBackend(
      BackendCosts costs = default_costs(FrameworkKind::TfAgents))
      : BackendBase(costs) {}
  FrameworkKind kind() const override { return FrameworkKind::TfAgents; }
};

/// Factory over FrameworkKind.
std::unique_ptr<Backend> make_backend(FrameworkKind kind);

/// Factory with explicit cost calibration (ablation benches).
std::unique_ptr<Backend> make_backend(FrameworkKind kind,
                                      const BackendCosts& costs);

}  // namespace darl::frameworks
