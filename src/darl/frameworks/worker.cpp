#include "darl/frameworks/worker.hpp"

#include "darl/common/error.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/trace.hpp"

namespace darl::frameworks {

RolloutWorker::RolloutWorker(std::size_t id, std::unique_ptr<env::Env> env,
                             std::unique_ptr<rl::RolloutActor> actor,
                             std::uint64_t seed)
    : id_(id), actor_(std::move(actor)), rng_(seed) {
  DARL_CHECK(env != nullptr, "worker got a null environment");
  DARL_CHECK(actor_ != nullptr, "worker got a null actor");
  env->seed(Rng(seed).split(0xE57).seed());
  env_ = std::make_unique<env::EpisodeMonitor>(std::move(env));
}

void RolloutWorker::sync(const Vec& params) { actor_->set_params(params); }

rl::WorkerBatch RolloutWorker::collect(std::size_t n_steps) {
  DARL_SPAN_V("worker.collect", "worker", id_);
  rl::WorkerBatch batch;
  batch.worker_id = id_;
  batch.transitions.reserve(n_steps);

  if (!started_) {
    obs_ = env_->reset();
    started_ = true;
  }
  for (std::size_t i = 0; i < n_steps; ++i) {
    const rl::ActOutput act = actor_->act(obs_, rng_);
    ++cost_.inferences;
    const env::StepResult r = env_->step(act.action);
    ++cost_.steps;

    rl::Transition tr;
    tr.obs = obs_;
    tr.action = act.action;
    tr.reward = r.reward;
    tr.next_obs = r.observation;
    tr.terminated = r.terminated;
    tr.truncated = r.truncated;
    tr.log_prob = act.log_prob;
    batch.transitions.push_back(std::move(tr));

    if (r.done()) {
      obs_ = env_->reset();
    } else {
      obs_ = r.observation;
    }
  }
  const double env_cost = env_->take_compute_cost();
  cost_.env_cost_units += env_cost;
  // Surface the collection cost into the process-wide registry (the
  // CollectCost struct itself stays backend-internal).
  DARL_COUNTER_ADD("worker.steps", n_steps);
  DARL_COUNTER_ADD("worker.inferences", n_steps);
  DARL_GAUGE_ADD("worker.env_cost_units", env_cost);
  return batch;
}

CollectCost RolloutWorker::take_cost() {
  CollectCost c = cost_;
  cost_ = CollectCost{};
  return c;
}

WorkerGroup::WorkerGroup(const env::EnvFactory& factory,
                         const rl::Algorithm& algo, std::uint64_t seed,
                         std::size_t first_id, std::size_t count)
    : first_id_(first_id), shipped_episodes_(count, 0), errors_(count) {
  const Rng seeder(seed);
  workers_.reserve(count);
  for (std::size_t id = first_id; id < first_id + count; ++id) {
    auto e = factory();
    DARL_CHECK(e != nullptr, "env factory returned null");
    workers_.push_back(std::make_unique<RolloutWorker>(
        id, std::move(e), algo.make_actor(), seeder.split(100 + id).seed()));
  }
}

void WorkerGroup::sync(const Vec& params) {
  for (auto& w : workers_) w->sync(params);
}

void WorkerGroup::start_collect(std::size_t n_steps, std::uint64_t version,
                                Sink sink) {
  DARL_ASSERT(running_.empty(), "start_collect while a collection runs");
  // Spans on the collection threads re-tag themselves with the caller's
  // trial (thread-locals do not inherit).
  const std::int64_t trial = obs::current_trial();
  running_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    running_.emplace_back([this, i, n_steps, version, trial, sink] {
      try {
        obs::TrialScope tag(trial);
        RolloutWorker& w = *workers_[i];
        net::BatchMsg msg;
        msg.worker = w.id();
        msg.version = version;
        msg.transitions = w.collect(n_steps).transitions;
        const CollectCost cost = w.take_cost();
        msg.env_cost_units = cost.env_cost_units;
        msg.inferences = cost.inferences;
        msg.steps = cost.steps;
        const auto& eps = w.episodes();
        msg.episodes.assign(
            eps.begin() + static_cast<std::ptrdiff_t>(shipped_episodes_[i]),
            eps.end());
        shipped_episodes_[i] = eps.size();
        sink(std::move(msg));
      } catch (...) {
        errors_[i] = std::current_exception();
      }
    });
  }
}

void WorkerGroup::wait() {
  running_.clear();  // joins
  std::exception_ptr first;
  for (auto& error : errors_) {
    if (!first) first = error;
    error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void WorkerGroup::collect(std::size_t n_steps, std::uint64_t version,
                          Sink sink) {
  start_collect(n_steps, version, std::move(sink));
  wait();
}

}  // namespace darl::frameworks
