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

RolloutWorker::RolloutWorker(std::size_t id, const env::EnvFactory& factory,
                             std::size_t n_envs,
                             std::unique_ptr<rl::RolloutActor> actor,
                             std::uint64_t seed)
    : id_(id), actor_(std::move(actor)), rng_(seed) {
  DARL_CHECK(actor_ != nullptr, "worker got a null actor");
  DARL_CHECK(n_envs > 0, "vectorized worker needs at least one env");
  // Same seed derivation as the scalar flavour; SyncVecEnv splits it per
  // sub-env.
  vec_ = std::make_unique<env::SyncVecEnv>(factory, n_envs,
                                           Rng(seed).split(0xE57).seed());
}

void RolloutWorker::sync(const Vec& params) { actor_->set_params(params); }

rl::WorkerBatch RolloutWorker::collect(std::size_t n_steps) {
  DARL_SPAN_V("worker.collect", "worker", id_);
  if (vec_) return collect_vec(n_steps);
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

rl::WorkerBatch RolloutWorker::collect_vec(std::size_t n_steps) {
  const std::size_t n = vec_->n_envs();
  DARL_CHECK(n_steps % n == 0, "collect: " << n_steps
                                           << " steps not divisible by " << n
                                           << " sub-envs");
  rl::WorkerBatch batch;
  batch.worker_id = id_;
  batch.transitions.reserve(n_steps);
  const std::size_t rounds = n_steps / n;

  if (!started_) {
    vec_obs_ = vec_->reset();
    started_ = true;
  }
  acts_.resize(n);
  actions_.resize(n);
  env_buf_.resize(n);
  for (auto& buf : env_buf_) {
    buf.clear();
    buf.reserve(rounds);
  }

  for (std::size_t t = 0; t < rounds; ++t) {
    // One batched policy evaluation across all sub-envs; rng draws happen
    // per sub-env in slot order inside act_batch.
    actor_->act_batch(vec_obs_, rng_, acts_);
    cost_.inferences += n;
    for (std::size_t e = 0; e < n; ++e) actions_[e] = acts_[e].action;
    env::VecStepResult r = vec_->step(actions_);
    cost_.steps += n;

    for (std::size_t e = 0; e < n; ++e) {
      rl::Transition tr;
      tr.obs = std::move(vec_obs_[e]);
      tr.action = std::move(actions_[e]);
      tr.reward = r.reward[e];
      const bool ended = r.terminated[e] || r.truncated[e];
      // On auto-reset, observation[e] is already the next episode's first
      // observation; the transition must record the terminal one.
      tr.next_obs = ended ? std::move(r.final_observation[e])
                          : r.observation[e];
      tr.terminated = r.terminated[e];
      tr.truncated = r.truncated[e];
      tr.log_prob = acts_[e].log_prob;
      env_buf_[e].push_back(std::move(tr));
    }
    vec_obs_ = std::move(r.observation);
  }

  // Concatenate per-env segments so each sub-env's transitions stay
  // temporally contiguous (GAE / v-trace treat a WorkerBatch as one
  // stream). A segment cut mid-episode is marked truncated so consumers
  // bootstrap from next_obs instead of chaining into the next segment.
  for (std::size_t e = 0; e < n; ++e) {
    if (!env_buf_[e].empty() && !env_buf_[e].back().done()) {
      env_buf_[e].back().truncated = true;
    }
    for (auto& tr : env_buf_[e]) batch.transitions.push_back(std::move(tr));
  }

  const double env_cost = vec_->take_compute_cost();
  cost_.env_cost_units += env_cost;
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

const std::vector<env::EpisodeRecord>& RolloutWorker::episodes() const {
  if (vec_) {
    episodes_cache_ = vec_->all_episodes();
    return episodes_cache_;
  }
  return env_->episodes();
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
