// darl/frameworks/worker.hpp
//
// A rollout worker: one private environment instance plus an inference-only
// policy copy and a private random stream. Workers are the unit every
// backend parallelizes over; because each worker is self-contained, running
// them on real threads is deterministic regardless of scheduling.
// WorkerGroup is the one way a process builds and drives its share of a
// run's workers, in the learner and in actor processes alike.

#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "darl/common/rng.hpp"
#include "darl/env/wrappers.hpp"
#include "darl/net/wire.hpp"
#include "darl/rl/algorithm.hpp"

namespace darl::frameworks {

/// Costs a worker accumulated while collecting (simulated units).
struct CollectCost {
  double env_cost_units = 0.0;  ///< env-internal compute (ODE RHS evals)
  std::size_t inferences = 0;   ///< policy forward passes
  std::size_t steps = 0;        ///< environment steps taken
};

/// One rollout worker. Not thread-safe; exactly one thread may drive it at
/// a time (different workers may run concurrently).
class RolloutWorker {
 public:
  /// `env` is wrapped in an EpisodeMonitor internally. `actor` must come
  /// from the Algorithm this worker feeds.
  RolloutWorker(std::size_t id, std::unique_ptr<env::Env> env,
                std::unique_ptr<rl::RolloutActor> actor, std::uint64_t seed);

  /// Refresh the worker's policy snapshot.
  void sync(const Vec& params);

  /// Collect exactly `n_steps` transitions (crossing episode boundaries
  /// with auto-reset). Returns the batch; costs accumulate until
  /// take_cost().
  rl::WorkerBatch collect(std::size_t n_steps);

  /// Drain the accumulated collection cost counters.
  CollectCost take_cost();

  /// Episode records observed so far (score = paper Reward metric).
  const std::vector<env::EpisodeRecord>& episodes() const {
    return env_->episodes();
  }

  std::size_t id() const { return id_; }

 private:
  std::size_t id_;
  std::unique_ptr<env::EpisodeMonitor> env_;
  std::unique_ptr<rl::RolloutActor> actor_;
  Rng rng_;
  Vec obs_;
  bool started_ = false;
  CollectCost cost_;
};

/// The rollout workers one process hosts: `count` workers with consecutive
/// global ids from `first_id`. Worker `id` seeds from split stream
/// 100 + id of the run seed whichever process hosts it, so its stream does
/// not depend on where its node runs.
class WorkerGroup {
 public:
  /// Receives one worker's batch on that worker's collection thread.
  using Sink = std::function<void(net::BatchMsg)>;

  WorkerGroup(const env::EnvFactory& factory, const rl::Algorithm& algo,
              std::uint64_t seed, std::size_t first_id, std::size_t count);
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  /// Refresh every worker's policy snapshot.
  void sync(const Vec& params);

  /// Start one thread per worker collecting `n_steps` transitions. Each
  /// thread hands `sink` its worker's batch tagged with `version`, with the
  /// collection cost and the episodes finished since the previous batch.
  void start_collect(std::size_t n_steps, std::uint64_t version, Sink sink);

  /// Join the collection threads; rethrows the lowest-id worker's failure.
  void wait();

  /// start_collect, then wait.
  void collect(std::size_t n_steps, std::uint64_t version, Sink sink);

  std::size_t first_id() const { return first_id_; }
  std::size_t size() const { return workers_.size(); }

 private:
  std::size_t first_id_;
  std::vector<std::unique_ptr<RolloutWorker>> workers_;
  std::vector<std::size_t> shipped_episodes_;  // per worker, already batched
  std::vector<std::exception_ptr> errors_;     // per worker, last collect
  std::vector<std::jthread> running_;  // last: joined before the rest goes
};

}  // namespace darl::frameworks
