// darl/frameworks/distributed.hpp
//
// The multi-process actor–learner runtime (DESIGN.md §17): the RLlib
// schedule of BackendBase::run_schedule with nodes 1..N-1 placed in real
// actor processes connected over darl/net sockets instead of threads in
// the learner's address space. The loop is the in-process one, so remote
// actors receive version max(t-2, 0) at iteration t, their batches are
// consumed one iteration late, reported-cost accounting stays in
// simcluster, and campaign CSVs are byte-identical between the two
// placements.
//
// What the wire adds to the determinism contract:
//   * worker i seeds from the same per-id stream in whichever process
//     hosts it (WorkerGroup), the learner's algorithm from split(1).
//   * batches travel as raw IEEE-754 bits (wire protocol v3) and weights
//     as checkpoint-v2 text, whose 17 significant digits round-trip every
//     finite double, so every parameter and sample is bitwise preserved
//     across the wire.
//   * the learner rejects a batch whose worker id lies outside its
//     sender's node or repeats within an iteration, then sorts the rest by
//     worker id — the order the in-process placement produces.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "darl/env/env.hpp"
#include "darl/frameworks/backend.hpp"

namespace darl::frameworks {

/// Rebuilds an environment factory from the opaque spec string carried in
/// a Job message (e.g. airdrop::airdrop_factory_from_spec). The worker
/// binary registers one; darl/net and this runtime stay case-study
/// agnostic.
using EnvSpecResolver = std::function<env::EnvFactory(const std::string&)>;

/// Configuration of the multi-process runtime.
struct DistributedOptions {
  /// Run RLlib multi-node trials over real processes (darl_study
  /// --distributed). Single-node trials always stay in-process.
  bool enabled = false;

  /// Listen endpoint ("tcp:0" for an ephemeral loopback port,
  /// "unix:/path.sock"). Empty picks a fresh Unix socket under /tmp.
  std::string endpoint;

  /// Actor binary to spawn (argv[0]); empty resolves to "darl_worker"
  /// next to the running executable.
  std::string worker_bin;

  /// Spawn one actor process per remote node (fork/execv). When false the
  /// learner only listens — actors are started externally (tests drive
  /// run_actor on threads; check.sh starts separate processes).
  bool spawn_actors = true;

  /// Deadline for the actor fleet to connect (and for actors to reach the
  /// learner — forwarded in the spawned workers' argv).
  double connect_timeout_s = 30.0;

  /// I/O timeout on established connections, on both ends: it bounds each
  /// send syscall and each whole received frame, so a wedged or
  /// trickling peer surfaces as FrameError{TimedOut} instead of a hang.
  double io_timeout_s = 120.0;
};

/// RllibBackend's schedule over real processes: node 0's workers on
/// threads, one actor process per remote node, weights out / batches in
/// over length-prefixed frames, per-batch staleness taken from the version
/// tags carried on the wire. Requires nodes >= 2 and a non-empty
/// TrainRequest::env_spec.
class DistributedRllibBackend final : public BackendBase {
 public:
  explicit DistributedRllibBackend(
      DistributedOptions options,
      BackendCosts costs = default_costs(FrameworkKind::RayRllib));
  FrameworkKind kind() const override { return FrameworkKind::RayRllib; }
  TrainResult run(const TrainRequest& request) override;

 private:
  DistributedOptions options_;
};

/// The actor-process main loop: connect to the learner, handshake, build
/// the node's rollout workers from the Job, then per iteration load the
/// shipped checkpoint, collect on one thread per worker, and send one
/// Batch per worker back, in worker order, from the calling thread (a
/// slow learner holds it in a blocked send). Returns the number of
/// iterations served; throws NetError/FrameError/WireError on transport
/// or protocol failure.
std::size_t run_actor(const std::string& endpoint, std::size_t node,
                      const EnvSpecResolver& resolver,
                      double connect_timeout_s = 30.0,
                      double io_timeout_s = 120.0);

/// Factory mirroring make_backend.
std::unique_ptr<Backend> make_distributed_backend(
    const DistributedOptions& options);

}  // namespace darl::frameworks
