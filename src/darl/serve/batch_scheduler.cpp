#include "darl/serve/batch_scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "darl/common/error.hpp"
#include "darl/common/kernel.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/trace.hpp"

namespace darl::serve {
namespace {

// Serving latency buckets in microseconds: sub-100us in-process batching
// up to multi-millisecond saturation, plus the implicit overflow bucket.
const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds{
      50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 50000.0};
  return bounds;
}

// Micro-batch sizes, powers of two like nn.batch_rows.
const std::vector<double>& batch_rows_bounds() {
  static const std::vector<double> bounds{1.0,  2.0,  4.0,   8.0,  16.0,
                                          32.0, 64.0, 128.0, 256.0};
  return bounds;
}

obs::Labels with_label(const obs::Labels& base, const char* key,
                       const char* value) {
  obs::Labels labels = base;
  labels.emplace_back(key, value);
  return labels;
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::Ok:
      return "ok";
    case Outcome::RejectedFull:
      return "rejected-full";
    case Outcome::RejectedShutdown:
      return "rejected-shutdown";
    case Outcome::TimedOut:
      return "timed-out";
    case Outcome::RejectedQuota:
      return "rejected-quota";
    case Outcome::Shed:
      return "shed";
  }
  return "unknown";
}

BatchScheduler::BatchScheduler(const PolicyStore& store, ServeConfig config)
    : config_(std::move(config)) {
  DARL_CHECK(config_.max_batch >= 1, "max_batch must be at least 1");
  DARL_CHECK(config_.queue_capacity >= 1, "queue_capacity must be at least 1");
  DARL_CHECK(config_.max_delay_us >= 0.0, "max_delay_us must be non-negative");
  tenant_ = store.tenant(config_.tenant);
  DARL_CHECK(tenant_ != nullptr,
             "PolicyStore has no tenant '" << config_.tenant << "' to serve");
  const PolicyVersion* version = tenant_->current();
  DARL_CHECK(version != nullptr,
             "PolicyStore has no published version to serve");
  input_dim_ = version->spec.input_dim();
  action_dim_ = version->spec.action_space.action_dim();

  // Instrument resolution happens exactly once, here: the serve/dispatch
  // hot paths only touch the cached pointers. Latency is one histogram
  // family labeled by outcome, so rejected and timed-out requests show in
  // the same exposition family as the Ok path instead of vanishing — a
  // p99 that "improves" under overload was exactly the blind spot.
  obs::Registry& registry = obs::Registry::global();
  requests_ctr_ = &registry.counter("serve.requests", config_.labels);
  served_ctr_ = &registry.counter("serve.served", config_.labels);
  batches_ctr_ = &registry.counter("serve.batches", config_.labels);
  replica_refresh_ctr_ =
      &registry.counter("serve.replica_refresh", config_.labels);
  batch_rows_hist_ =
      &registry.histogram("serve.batch_rows", batch_rows_bounds(),
                          config_.labels);
  queue_depth_gauge_ = &registry.gauge("serve.queue_depth", config_.labels);
  const struct {
    Outcome outcome;
    const char* counter;
  } outcome_counters[] = {
      {Outcome::RejectedFull, "serve.rejected_full"},
      {Outcome::RejectedShutdown, "serve.rejected_shutdown"},
      {Outcome::TimedOut, "serve.timed_out"},
  };
  for (const auto& [outcome, counter] : outcome_counters) {
    outcome_ctr_[static_cast<std::size_t>(outcome)] =
        &registry.counter(counter, config_.labels);
  }
  for (const Outcome outcome :
       {Outcome::Ok, Outcome::RejectedFull, Outcome::RejectedShutdown,
        Outcome::TimedOut}) {
    latency_hist_[static_cast<std::size_t>(outcome)] = &registry.histogram(
        "serve.latency_us", latency_bounds(),
        with_label(config_.labels, "outcome", outcome_name(outcome)));
  }

  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->batch.assign(config_.max_batch, nullptr);
    workers_.push_back(std::move(worker));
  }
  // Spawn only after every Worker is in place: threads capture stable
  // pointers into workers_.
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { dispatch_loop(*w); });
  }
}

BatchScheduler::~BatchScheduler() { shutdown(); }

void BatchScheduler::publish_queue_depth() {
  // Caller holds queue_mutex_: the gauge is consistent with the queue it
  // describes, and with per-shard labels each shard owns its own series.
  if (obs::metrics_enabled()) {
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  }
}

Response& BatchScheduler::finish(Response& response, Outcome outcome,
                                 double latency_us) {
  response.outcome = outcome;
  response.latency_us = latency_us;
  if (obs::metrics_enabled()) {
    if (obs::Counter* ctr = outcome_ctr_[static_cast<std::size_t>(outcome)]) {
      ctr->add(1);
    }
    if (obs::Histogram* hist =
            latency_hist_[static_cast<std::size_t>(outcome)]) {
      hist->observe(latency_us);
    }
  }
  return response;
}

Response BatchScheduler::serve(const Vec& obs, double deadline_us) {
  DARL_CHECK(obs.size() == input_dim_,
             "serve: observation has " << obs.size() << " dims, policy expects "
                                       << input_dim_);
  Stopwatch stopwatch;
  if (obs::metrics_enabled()) requests_ctr_->add(1);

  Response response;
  response.action.assign(action_dim_, 0.0);
  Request request;
  request.obs = &obs;
  request.out = &response;

  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      return finish(response, Outcome::RejectedShutdown,
                    stopwatch.seconds() * 1e6);
    }
    if (queue_.size() >= config_.queue_capacity) {
      return finish(response, Outcome::RejectedFull,
                    stopwatch.seconds() * 1e6);
    }
    queue_.push_back(&request);
    publish_queue_depth();
  }
  queue_cv_.notify_one();

  {
    std::unique_lock<std::mutex> lock(request.mutex);
    if (deadline_us <= 0.0) {
      request.cv.wait(lock, [&] { return request.done; });
    } else if (!request.cv.wait_for(
                   lock, std::chrono::duration<double, std::micro>(deadline_us),
                   [&] { return request.done; })) {
      lock.unlock();
      bool removed = false;
      {
        std::lock_guard<std::mutex> queue_lock(queue_mutex_);
        const auto it = std::find(queue_.begin(), queue_.end(), &request);
        if (it != queue_.end()) {
          queue_.erase(it);
          removed = true;
          publish_queue_depth();
        }
      }
      if (removed) {
        return finish(response, Outcome::TimedOut, stopwatch.seconds() * 1e6);
      }
      // A worker popped the request before we could abandon it; the
      // result is imminent — wait it out so the stack frame stays valid.
      lock.lock();
      request.cv.wait(lock, [&] { return request.done; });
    }
  }

  return finish(response, Outcome::Ok, stopwatch.seconds() * 1e6);
}

void BatchScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::size_t BatchScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

DARL_KERNEL void BatchScheduler::dispatch_loop(Worker& worker) {
  for (;;) {
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;  // drained
        continue;
      }
      // Batching window: give concurrent clients max_delay_us to fill the
      // batch. Shutdown flushes immediately so draining never waits.
      if (queue_.size() < config_.max_batch && config_.max_delay_us > 0.0 &&
          !stopping_) {
        Stopwatch window;
        if (config_.gather) {
          // Yield-gather: cede the CPU so clients that are already
          // runnable can enqueue; stop the moment a yield brings no new
          // arrival. Unlike a timed sleep this has no granularity floor,
          // so a straggler costs one scheduler pass, not a timer tick.
          std::size_t seen = queue_.size();
          while (!stopping_ && queue_.size() < config_.max_batch &&
                 window.seconds() * 1e6 < config_.max_delay_us) {
            lock.unlock();
            std::this_thread::yield();
            lock.lock();
            if (queue_.size() <= seen) break;  // arrivals went idle
            seen = queue_.size();
          }
        } else {
          while (!stopping_ && !queue_.empty() &&
                 queue_.size() < config_.max_batch) {
            const double remaining_us =
                config_.max_delay_us - window.seconds() * 1e6;
            if (remaining_us <= 0.0) break;
            queue_cv_.wait_for(
                lock, std::chrono::duration<double, std::micro>(remaining_us));
          }
        }
        if (queue_.empty()) continue;  // abandoned or taken by a peer
      }
      count = std::min(queue_.size(), config_.max_batch);
      for (std::size_t i = 0; i < count; ++i) {
        worker.batch[i] = queue_.front();
        queue_.pop_front();
      }
      publish_queue_depth();
    }
    execute_batch(worker, count);
  }
}

DARL_KERNEL void BatchScheduler::execute_batch(Worker& worker,
                                             std::size_t count) {
  DARL_SPAN_V("serve.execute", "rows", count);
  // One version per micro-batch: everything popped above is served by the
  // snapshot read here, even if a publish lands mid-execution.
  const PolicyVersion* version = tenant_->current();
  ensure_replica(worker, *version);
  worker.obs_mat.reshape(count, input_dim_);
  for (std::size_t i = 0; i < count; ++i) {
    const Vec& obs = *worker.batch[i]->obs;
    std::copy(obs.begin(), obs.end(), worker.obs_mat.row(i));
  }
  const Matrix& heads = worker.net->evaluate_batch(worker.obs_mat);
  for (std::size_t i = 0; i < count; ++i) {
    Request* request = worker.batch[i];
    rl::greedy_action(version->spec.head, version->spec.action_space,
                      heads.row(i), request->out->action.data());
    request->out->version = version->id;
    complete(*request);
  }
  if (obs::metrics_enabled()) {
    batches_ctr_->add(1);
    served_ctr_->add(count);
    batch_rows_hist_->observe(static_cast<double>(count));
  }
}

void BatchScheduler::ensure_replica(Worker& worker,
                                    const PolicyVersion& version) {
  if (worker.version_id == version.id) return;
  // Hot-swap contract: every published version keeps the interface the
  // scheduler was built against.
  DARL_ASSERT(version.spec.input_dim() == input_dim_ &&
                  version.spec.action_space.action_dim() == action_dim_,
              "hot-swapped policy version changed the serving interface");
  if (!worker.net || worker.net->sizes() != version.spec.sizes ||
      worker.net->activation() != version.spec.activation) {
    Rng init(version.id);
    worker.net = std::make_unique<nn::Mlp>(version.spec.sizes,
                                           version.spec.activation, init);
  }
  worker.net->set_flat_params(version.spec.net_params);
  worker.version_id = version.id;
  if (obs::metrics_enabled()) replica_refresh_ctr_->add(1);
}

void BatchScheduler::complete(Request& request) {
  // Notify UNDER the lock: the Request lives on the client's stack, and
  // the client destroys it as soon as serve() observes done. Holding the
  // mutex across notify_one means the client cannot finish its wait (it
  // must re-acquire the mutex) until this thread is done touching the
  // condition variable — the canonical safe pattern for a cv whose
  // lifetime ends right after the wakeup.
  std::lock_guard<std::mutex> lock(request.mutex);
  request.done = true;
  request.cv.notify_one();
}

}  // namespace darl::serve
