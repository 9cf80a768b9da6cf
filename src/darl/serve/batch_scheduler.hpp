// darl/serve/batch_scheduler.hpp
//
// Micro-batching policy inference server. Clients call serve() with one
// observation; the scheduler coalesces concurrent requests into
// micro-batches (flushed when `max_batch` requests are pending or
// `max_delay_us` has elapsed since a worker started assembling a batch,
// whichever comes first) and executes them through nn::Mlp::evaluate_batch
// on a pool of worker threads. Because the batched kernels accumulate in
// ascending index order (DESIGN.md §11), a served action is bitwise
// identical to per-sample Mlp::evaluate + greedy decode on the same
// checkpoint, no matter which micro-batch the request lands in.
//
// Admission control follows the PR 2 status-not-throw philosophy: a full
// queue rejects immediately (Outcome::RejectedFull backpressure), a
// per-request deadline turns into Outcome::TimedOut instead of blocking
// forever, and requests arriving after shutdown() get
// Outcome::RejectedShutdown. Malformed requests (wrong observation
// dimension) are contract violations and throw, as everywhere in darl.
//
// Hot swap: workers pick up PolicyStore::current() once per micro-batch,
// so every request in a batch is served by exactly one version and
// in-flight batches finish on the version they started with. Each worker
// keeps a private nn::Mlp replica (instances are not safe for concurrent
// evaluation) refreshed when the version id changes. All published
// versions must share the serving interface (input/action dims) captured
// at scheduler construction.

#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "darl/common/thread_safety.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/serve/policy_store.hpp"

namespace darl::serve {

/// Scheduler tuning knobs.
struct ServeConfig {
  /// Tenant (named policy) in the PolicyStore this scheduler serves. The
  /// empty default is the unnamed single-policy tenant, so pre-fleet call
  /// sites keep working unchanged.
  std::string tenant;
  /// Instrument labels stamped on every metric this scheduler emits
  /// (serve::Router sets {{"tenant",...},{"shard",...}}). Empty keeps the
  /// historical unlabeled instrument keys.
  obs::Labels labels;
  /// Flush a micro-batch at this many requests.
  std::size_t max_batch = 32;
  /// Flush an incomplete micro-batch this many microseconds after a worker
  /// starts assembling it (0 = never wait: serve whatever is queued).
  double max_delay_us = 200.0;
  /// Adaptive gather (default): while a batch is short of max_batch, the
  /// worker yields the CPU instead of sleeping, letting already-runnable
  /// clients append their requests; it flushes as soon as one yield
  /// surfaces no new arrival (everyone who was going to join has joined).
  /// This assembles full batches from concurrent bursts without paying
  /// timer granularity, and degrades to greedy dispatch when nothing else
  /// is runnable. Set false to sleep out max_delay_us unconditionally
  /// (fixed-window batching; higher latency, predictable flush cadence).
  bool gather = true;
  /// Bounded admission queue; requests beyond this are rejected.
  std::size_t queue_capacity = 256;
  /// Dispatch worker threads. 0 is a test-only mode: nothing dispatches,
  /// so requests leave the queue only via deadline abandonment.
  std::size_t workers = 1;
};

/// Typed request outcome (status-not-throw: only contract violations
/// raise exceptions on the serving path). The first four are produced by
/// BatchScheduler itself; RejectedQuota and Shed are produced by
/// serve::Router's admission layer before a request reaches a shard.
enum class Outcome {
  Ok,                ///< action filled by the policy
  RejectedFull,      ///< admission queue at capacity (backpressure)
  RejectedShutdown,  ///< server is stopping / stopped
  TimedOut,          ///< deadline expired while waiting in the queue
  RejectedQuota,     ///< tenant exceeded its in-flight admission quota
  Shed,              ///< dropped by priority load-shedding under overload
};

/// Number of Outcome values (for per-outcome instrument arrays).
inline constexpr std::size_t kOutcomeCount = 6;

const char* outcome_name(Outcome outcome);

/// Result of one serve() call.
struct Response {
  Outcome outcome = Outcome::RejectedShutdown;
  Vec action;                ///< greedy action (valid when outcome == Ok)
  std::uint64_t version = 0; ///< policy version that served the request
  double latency_us = 0.0;   ///< admission to return, client-side
};

/// Micro-batching inference server over one PolicyStore tenant (the
/// unnamed tenant by default — set ServeConfig::tenant to serve a named
/// policy; serve::Router builds one scheduler per tenant x shard).
/// Construction captures the tenant's current version interface and
/// starts the worker pool; the destructor shuts down and drains. serve()
/// may be called from any number of client threads concurrently;
/// shutdown() must not be called concurrently with itself.
class BatchScheduler {
 public:
  BatchScheduler(const PolicyStore& store, ServeConfig config);
  ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Serve one observation. Blocks until the action is computed, the
  /// queue rejects the request, or `deadline_us` microseconds elapse
  /// while the request is still queued (deadline_us <= 0 waits without
  /// limit). A request a worker has already claimed is always completed,
  /// even if the deadline lapses during execution.
  Response serve(const Vec& obs, double deadline_us = 0.0);

  /// Stop accepting requests, serve everything already queued, and join
  /// the workers. Idempotent.
  void shutdown();

  /// Requests currently waiting for dispatch (diagnostics/tests).
  std::size_t queue_depth() const;

  std::size_t input_dim() const { return input_dim_; }
  std::size_t action_dim() const { return action_dim_; }

 private:
  /// One queued request. Lives on the client's stack for the duration of
  /// serve(); queue membership is guarded by queue_mutex_, completion by
  /// the per-request mutex/cv. A client may remove its own request from
  /// the queue (deadline abandonment); once a worker has popped it, only
  /// the worker touches it until `done` is published.
  struct Request {
    const Vec* obs = nullptr;
    Response* out = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
    bool done DARL_GUARDED_BY(mutex) = false;
  };

  /// Per-worker state: a private policy replica and preallocated batch
  /// scratch, so the dispatch/execute hot path never allocates.
  struct Worker {
    std::thread thread;
    std::unique_ptr<nn::Mlp> net;
    std::uint64_t version_id = 0;  ///< version the replica holds (0 = none)
    Matrix obs_mat;
    std::vector<Request*> batch;
  };

  void dispatch_loop(Worker& worker);
  void execute_batch(Worker& worker, std::size_t count);
  void ensure_replica(Worker& worker, const PolicyVersion& version);
  void complete(Request& request);
  /// Finish a response: stamp outcome + latency and record the
  /// per-outcome latency histogram (labeled, resolved at construction).
  Response& finish(Response& response, Outcome outcome, double latency_us);

  const PolicyStore::Tenant* tenant_ = nullptr;
  ServeConfig config_;
  std::size_t input_dim_ = 0;
  std::size_t action_dim_ = 0;

  // Instruments resolved once here: the dispatch/serve hot paths never
  // touch the registry (darl-lint's metric-lookup-in-kernel rule). All
  // carry config_.labels; latency is additionally labeled by outcome.
  obs::Counter* requests_ctr_ = nullptr;
  obs::Counter* served_ctr_ = nullptr;
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* replica_refresh_ctr_ = nullptr;
  std::array<obs::Counter*, kOutcomeCount> outcome_ctr_{};
  std::array<obs::Histogram*, kOutcomeCount> latency_hist_{};
  obs::Histogram* batch_rows_hist_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;

  /// Publish the queue depth gauge; caller holds queue_mutex_, so the
  /// gauge moves in lockstep with the queue it describes (per shard —
  /// the pre-fleet code wrote one global gauge from racing shards).
  void publish_queue_depth() DARL_REQUIRES(queue_mutex_);

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request*> queue_ DARL_GUARDED_BY(queue_mutex_);
  bool stopping_ DARL_GUARDED_BY(queue_mutex_) = false;

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace darl::serve
