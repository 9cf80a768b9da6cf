#include "darl/frameworks/backend.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#include "darl/common/error.hpp"
#include "darl/common/stats.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/trace.hpp"
#include "darl/rl/evaluate.hpp"

namespace darl::frameworks {

namespace {

/// A framework's coordination schedule, fixed by its kind and the
/// deployment (DESIGN.md §17 "One schedule").
struct Schedule {
  std::size_t nodes = 1;
  std::size_t cores = 1;
  /// Transitions each worker collects per iteration.
  std::size_t per_worker = 1;
  /// Inference is charged batched on node 0's driver rather than on each
  /// worker (Stable Baselines' vectorized environments).
  bool driver_inference = false;

  std::size_t workers() const { return nodes * cores; }

  /// How many learner updates `node`'s workers act behind. A single node
  /// syncs synchronously with the learner. Across nodes, weights travel
  /// through the cluster object store: the learner's node acts on the
  /// previous cycle's snapshot and remote nodes on one older still
  /// (broadcast plus in-flight latency) — the asynchronous pipeline behind
  /// the paper's multi-node reward-reproducibility caveat (§VI-D).
  std::uint64_t lag(std::size_t node) const {
    if (nodes == 1) return 0;
    return node == 0 ? 1 : 2;
  }

  /// The parameter version `node`'s workers act on at iteration `t`.
  std::uint64_t version(std::size_t node, std::uint64_t t) const {
    return t >= lag(node) ? t - lag(node) : 0;
  }
};

Schedule make_schedule(FrameworkKind kind, const TrainRequest& request) {
  const DeploymentSpec& dep = request.deployment;
  DARL_CHECK(kind == FrameworkKind::RayRllib || dep.nodes == 1,
             framework_name(kind)
                 << " parallelizes on a single node (requested " << dep.nodes
                 << " nodes)");
  DARL_CHECK(dep.nodes >= 1 && dep.cores_per_node >= 1,
             "invalid deployment " << dep.nodes << "x" << dep.cores_per_node);
  DARL_CHECK(request.total_timesteps > 0, "no timesteps requested");
  Schedule s;
  s.nodes = dep.nodes;
  s.cores = dep.cores_per_node;
  if (kind == FrameworkKind::StableBaselines) {
    // One vectorized environment per core (§V-d of the paper), run as one
    // worker per core and consumed after `steps_per_env` steps each: the
    // total batch — and with it the update frequency per sample — scales
    // with the core count.
    s.per_worker = std::max<std::size_t>(1, request.steps_per_env);
    s.driver_inference = true;
  } else {
    // RLlib and TF-Agents spread a fixed total batch over every worker.
    s.per_worker =
        std::max<std::size_t>(1, request.train_batch_total / s.workers());
  }
  return s;
}

/// One worker's collection cost in simulated busy core-seconds.
double busy_seconds(const BackendCosts& costs, const CollectCost& cost,
                    double inference_mflop) {
  const double env_s = cost.env_cost_units * costs.env_sec_per_cost_unit;
  const double overhead_s =
      static_cast<double>(cost.steps) * costs.per_step_overhead_s;
  // Inference converted at the paper-testbed core throughput with the
  // framework tax, discounted for frameworks that batch it across
  // environments.
  const double inf_mflop = static_cast<double>(cost.inferences) *
                           inference_mflop * costs.inference_tax *
                           costs.inference_batch_efficiency;
  const double inf_s = inf_mflop / sim::NodeSpec{}.core_mflop_per_s;
  return env_s + overhead_s + inf_s;
}

/// Final greedy evaluation on a fresh environment (fixed eval seed), and
/// aggregation of the training episodes into `result`.
/// `episodes_per_worker[i]` holds worker i's records in training order.
void finalize(
    const TrainRequest& request, rl::Algorithm& algo,
    const std::vector<std::vector<env::EpisodeRecord>>& episodes_per_worker,
    const sim::SimCluster& cluster, TrainResult& result) {
  DARL_SPAN("backend.eval");
  DARL_COUNTER_ADD("backend.train_jobs", 1);
  // Training-episode diagnostics: mean score of the most recent episodes
  // (up to 50 per worker).
  RunningStats train_scores;
  std::size_t episodes = 0;
  for (const auto& eps : episodes_per_worker) {
    episodes += eps.size();
    const std::size_t take = std::min<std::size_t>(eps.size(), 50);
    for (std::size_t i = eps.size() - take; i < eps.size(); ++i)
      train_scores.push(eps[i].score);
  }
  result.episodes = episodes;
  result.train_reward = train_scores.mean();

  // The Reward metric: greedy evaluation of the final policy on a fresh
  // environment with a fixed evaluation seed (independent of the training
  // stream, like re-running the trained model on the simulator).
  auto eval_env = request.env_factory();
  eval_env->seed(Rng(request.seed).split(0xEA1).seed());
  auto eval_actor = algo.make_actor();
  eval_actor->set_params(algo.policy_params());
  Rng eval_rng(Rng(request.seed).split(777).seed());
  RunningStats scores;
  for (std::size_t ep = 0; ep < request.eval_episodes; ++ep) {
    const rl::EvalResult r =
        rl::evaluate_policy(*eval_actor, *eval_env, 1, eval_rng,
                            /*stochastic=*/false);
    scores.push(r.mean_score);
  }
  result.reward = scores.mean();
  result.reward_stddev = scores.stddev();
  result.sim_seconds = cluster.elapsed_seconds();
  result.sim_energy_joules = cluster.energy_joules();
  result.final_policy = algo.policy_params();
}

/// Nodes 1..N-1 as in-process workers: sync hands them the weights and
/// starts their collection threads, collect joins them.
class ThreadNodes final : public RemoteNodes {
 public:
  explicit ThreadNodes(const Run& run)
      : per_worker_(run.per_worker),
        workers_(run.request.env_factory, run.algo, run.request.seed,
                 run.request.deployment.cores_per_node,
                 (run.request.deployment.nodes - 1) *
                     run.request.deployment.cores_per_node) {}
  ThreadNodes(const ThreadNodes&) = delete;
  ThreadNodes& operator=(const ThreadNodes&) = delete;

  void sync(std::uint64_t version, const Vec& params) override {
    workers_.sync(params);
    batches_.assign(workers_.size(), net::BatchMsg{});
    workers_.start_collect(per_worker_, version, [this](net::BatchMsg batch) {
      batches_[batch.worker - workers_.first_id()] = std::move(batch);
    });
  }

  std::vector<net::BatchMsg> collect() override {
    workers_.wait();
    return std::move(batches_);
  }

 private:
  std::size_t per_worker_;
  std::vector<net::BatchMsg> batches_;
  WorkerGroup workers_;  // last: its threads write batches_
};

}  // namespace

TrainResult BackendBase::run(const TrainRequest& request) {
  return run_schedule(request, [](const RemoteNodes::Run& run) {
    return std::make_unique<ThreadNodes>(run);
  });
}

TrainResult BackendBase::run_schedule(const TrainRequest& request,
                                      const PlaceRemote& place) const {
  const Schedule sched = make_schedule(kind(), request);
  Stopwatch wall;

  // Probe the environment interface.
  auto probe = request.env_factory();
  const std::size_t obs_dim = probe->observation_space().dim();
  const env::ActionSpace action_space = probe->action_space();
  probe.reset();

  auto algo = rl::make_algorithm(request.algo, obs_dim, action_space,
                                 Rng(request.seed).split(1).seed());

  // Node 0's workers share the learner's process; the learner uses all of
  // node 0's cores.
  WorkerGroup local(request.env_factory, *algo, request.seed, 0, sched.cores);
  sim::SimCluster cluster(
      sim::ClusterSpec::paper_testbed(sched.nodes, sched.cores));
  const double inference_mflop = algo->make_actor()->inference_cost_mflop();
  const std::unique_ptr<RemoteNodes> remote = place(
      {request, *algo, obs_dim, action_space.action_dim(), sched.per_worker});

  // Parameter versions: v = parameters after v train calls, v0 the initial
  // snapshot. At iteration t, window[k] holds v_{max(t-k, 0)}.
  std::array<Vec, 3> window;
  window.fill(algo->policy_params());

  // Remote batches reach the learner one update cycle late, so it always
  // consumes remote experience that is moderately but consistently
  // off-policy.
  std::vector<net::BatchMsg> delayed;
  std::vector<std::vector<env::EpisodeRecord>> episodes(sched.workers());
  // Staleness of a consumed batch: learner updates done minus the version
  // tag it carries, wherever it was collected.
  double staleness_sum = 0.0;
  std::size_t staleness_batches = 0;

  TrainResult result;
  std::size_t steps_done = 0;
  rl::TrainStats last_stats;

  while (steps_done < request.total_timesteps) {
    const std::uint64_t t = result.iterations;
    Stopwatch phase;
    // --- policy sync: every node's workers take their scheduled version.
    {
      DARL_SPAN("backend.sync");
      local.sync(window[sched.lag(0)]);
      remote->sync(sched.version(1, t), window[sched.lag(1)]);
      for (std::size_t node = 1; node < sched.nodes; ++node) {
        cluster.run_transfer(0, node,
                             static_cast<double>(algo->params_bytes()));
      }
    }
    result.sync_wall_seconds += phase.seconds();
    phase.reset();

    // --- collection, one thread per worker (workers are self-contained,
    // so the result is schedule-independent). `batches` ends up in global
    // worker-id order: node 0's, then the placement's.
    std::vector<net::BatchMsg> batches(sched.cores);
    {
      DARL_SPAN("backend.collect");
      local.collect(sched.per_worker, sched.version(0, t),
                    [&batches](net::BatchMsg batch) {
                      batches[batch.worker] = std::move(batch);
                    });
      std::vector<net::BatchMsg> remote_batches = remote->collect();
      batches.insert(batches.end(),
                     std::make_move_iterator(remote_batches.begin()),
                     std::make_move_iterator(remote_batches.end()));
      DARL_ASSERT(batches.size() == sched.workers(),
                  "collected " << batches.size() << " batches from "
                               << sched.workers() << " workers");

      // --- simulated collection phase.
      std::vector<sim::SimCluster::WorkerLoad> loads;
      loads.reserve(batches.size());
      double driver_inferences = 0.0;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        const net::BatchMsg& b = batches[i];
        DARL_ASSERT(b.worker == i,
                    "batch " << i << " came from worker " << b.worker);
        CollectCost cost{b.env_cost_units,
                         static_cast<std::size_t>(b.inferences),
                         static_cast<std::size_t>(b.steps)};
        if (sched.driver_inference) {
          driver_inferences += static_cast<double>(cost.inferences);
          cost.inferences = 0;
        }
        loads.push_back(
            {i / sched.cores, busy_seconds(costs_, cost, inference_mflop)});
        episodes[i].insert(episodes[i].end(), b.episodes.begin(),
                           b.episodes.end());
      }
      cluster.run_parallel_phase(loads);
      if (sched.driver_inference) {
        // Batched driver inference: one core, discounted by the vectorized
        // batch efficiency.
        const double inf_mflop = driver_inferences * inference_mflop *
                                 costs_.inference_tax *
                                 costs_.inference_batch_efficiency;
        cluster.run_compute(0, cluster.seconds_for_mflop(0, inf_mflop), 1);
      }
    }
    result.collect_wall_seconds += phase.seconds();
    phase.reset();

    // --- sample shipping from the remote nodes to the learner.
    if (sched.nodes > 1) {
      DARL_SPAN("backend.sync");
      for (std::size_t node = 1; node < sched.nodes; ++node) {
        double bytes = 0.0;
        for (std::size_t i = node * sched.cores;
             i < (node + 1) * sched.cores; ++i) {
          bytes += static_cast<double>(batches[i].transitions.size()) *
                   static_cast<double>(algo->transition_bytes());
        }
        cluster.run_transfer(node, 0, bytes);
      }
      result.sync_wall_seconds += phase.seconds();
      phase.reset();
    }

    // --- learner update on node 0 (all its cores): last iteration's
    // remote batches, then this iteration's local ones; this iteration's
    // remote batches wait for the next update.
    {
      DARL_SPAN("backend.learn");
      std::vector<rl::WorkerBatch> train_batches;
      train_batches.reserve(delayed.size() + sched.cores);
      const auto consume = [&](net::BatchMsg& b) {
        staleness_sum += static_cast<double>(t - b.version);
        ++staleness_batches;
        train_batches.push_back(rl::WorkerBatch{
            static_cast<std::size_t>(b.worker), std::move(b.transitions)});
      };
      for (auto& b : delayed) consume(b);
      for (std::size_t i = 0; i < sched.cores; ++i) consume(batches[i]);
      const auto remote_begin =
          batches.begin() + static_cast<std::ptrdiff_t>(sched.cores);
      delayed.assign(std::make_move_iterator(remote_begin),
                     std::make_move_iterator(batches.end()));

      last_stats = algo->train(train_batches);
      const double train_core_seconds = cluster.seconds_for_mflop(
          0, last_stats.train_cost_mflop * costs_.train_tax);
      cluster.run_compute(0, train_core_seconds, sched.cores,
                          costs_.train_parallel_efficiency);
      cluster.run_idle(costs_.iteration_overhead_s);
      window[2] = std::move(window[1]);
      window[1] = std::move(window[0]);
      window[0] = algo->policy_params();
    }
    result.learn_wall_seconds += phase.seconds();

    steps_done += sched.per_worker * sched.workers();
    ++result.iterations;
    if (sched.nodes > 1) {
      DARL_GAUGE_SET("net.staleness",
                     staleness_sum / static_cast<double>(staleness_batches));
    }
  }
  remote->finish();

  result.timesteps = steps_done;
  result.net_staleness =
      staleness_batches > 0
          ? staleness_sum / static_cast<double>(staleness_batches)
          : 0.0;
  result.final_policy_loss = last_stats.policy_loss;
  result.final_value_loss = last_stats.value_loss;
  result.final_entropy = last_stats.entropy;
  finalize(request, *algo, episodes, cluster, result);
  result.wall_seconds = wall.seconds();
  return result;
}

std::unique_ptr<Backend> make_backend(FrameworkKind kind) {
  return make_backend(kind, default_costs(kind));
}

std::unique_ptr<Backend> make_backend(FrameworkKind kind,
                                      const BackendCosts& costs) {
  switch (kind) {
    case FrameworkKind::RayRllib: return std::make_unique<RllibBackend>(costs);
    case FrameworkKind::StableBaselines:
      return std::make_unique<StableBaselinesBackend>(costs);
    case FrameworkKind::TfAgents:
      return std::make_unique<TfAgentsBackend>(costs);
  }
  throw InvalidArgument("unknown FrameworkKind");
}

}  // namespace darl::frameworks
