// Tests for the framework backends: worker mechanics, deployment
// validation, metric plausibility and the architectural signatures the
// paper attributes to each framework (multi-node speedup, vectorization
// coupling, single-node power advantage).

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/cartpole.hpp"
#include "darl/env/pendulum.hpp"
#include "darl/env/wrappers.hpp"
#include "darl/frameworks/backend.hpp"
#include "darl/frameworks/worker.hpp"
#include "darl/rl/evaluate.hpp"

namespace darl::frameworks {
namespace {

TrainRequest small_request(FrameworkKind kind, std::size_t nodes,
                           std::size_t cores) {
  (void)kind;
  TrainRequest req;
  req.env_factory = env::make_cartpole_factory(100);
  req.algo.kind = rl::AlgoKind::PPO;
  req.algo.ppo.epochs = 2;
  req.algo.ppo.minibatch_size = 32;
  req.deployment.nodes = nodes;
  req.deployment.cores_per_node = cores;
  req.total_timesteps = 2048;
  req.train_batch_total = 512;
  req.steps_per_env = 128;
  req.eval_episodes = 5;
  req.seed = 7;
  return req;
}

TEST(Worker, CollectsExactStepCountAndEpisodes) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  auto algo = rl::make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 1);
  RolloutWorker worker(3, env::make_cartpole_factory(20)(), algo->make_actor(), 99);
  worker.sync(algo->policy_params());

  const rl::WorkerBatch batch = worker.collect(100);
  EXPECT_EQ(batch.worker_id, 3u);
  ASSERT_EQ(batch.transitions.size(), 100u);
  for (const auto& t : batch.transitions) {
    EXPECT_EQ(t.obs.size(), 4u);
    EXPECT_LE(t.log_prob, 0.0);
  }
  // 20-step time limit: about 5 episodes must have finished.
  EXPECT_GE(worker.episodes().size(), 3u);

  const CollectCost cost = worker.take_cost();
  EXPECT_EQ(cost.steps, 100u);
  EXPECT_EQ(cost.inferences, 100u);
  EXPECT_GT(cost.env_cost_units, 0.0);
  EXPECT_EQ(worker.take_cost().steps, 0u);  // drained
}

TEST(Worker, CollectionContinuesAcrossCalls) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  auto algo = rl::make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 2);
  RolloutWorker worker(0, env::make_cartpole_factory(10)(), algo->make_actor(), 5);
  worker.sync(algo->policy_params());
  worker.collect(15);
  worker.collect(15);
  std::size_t total_len = 0;
  for (const auto& ep : worker.episodes()) total_len += ep.length;
  EXPECT_LE(total_len, 30u);  // episodes fit inside the collected steps
}

// The same seed, env and policy give the same batch, bit for bit; a
// different seed gives a different trajectory.
TEST(Worker, IdenticalSeedsProduceIdenticalBatches) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  auto algo =
      rl::make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 1);
  RolloutWorker a(0, env::make_cartpole_factory(20)(), algo->make_actor(), 7);
  RolloutWorker b(0, env::make_cartpole_factory(20)(), algo->make_actor(), 7);
  RolloutWorker c(0, env::make_cartpole_factory(20)(), algo->make_actor(), 8);
  a.sync(algo->policy_params());
  b.sync(algo->policy_params());
  c.sync(algo->policy_params());

  const rl::WorkerBatch ba = a.collect(48);
  const rl::WorkerBatch bb = b.collect(48);
  ASSERT_EQ(ba.transitions.size(), bb.transitions.size());
  for (std::size_t i = 0; i < ba.transitions.size(); ++i) {
    EXPECT_EQ(ba.transitions[i].obs, bb.transitions[i].obs);
    EXPECT_EQ(ba.transitions[i].action, bb.transitions[i].action);
    EXPECT_EQ(ba.transitions[i].reward, bb.transitions[i].reward);
    EXPECT_EQ(ba.transitions[i].log_prob, bb.transitions[i].log_prob);
    EXPECT_EQ(ba.transitions[i].terminated, bb.transitions[i].terminated);
    EXPECT_EQ(ba.transitions[i].truncated, bb.transitions[i].truncated);
  }
  EXPECT_NE(c.collect(48).transitions[0].obs, ba.transitions[0].obs);
}

// Within an episode a transition's next_obs is the next transition's obs.
// After a terminal or truncated step the worker resets, and its monitor
// records exactly one episode per such step.
TEST(Worker, StepsChainWithinEpisodesAndResetAfterThem) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  auto algo =
      rl::make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 1);
  RolloutWorker worker(1, env::make_cartpole_factory(10)(), algo->make_actor(),
                       99);
  worker.sync(algo->policy_params());

  const rl::WorkerBatch batch = worker.collect(60);
  ASSERT_EQ(batch.transitions.size(), 60u);
  std::size_t done = 0, end_of_last_episode = 0;
  for (std::size_t i = 0; i < batch.transitions.size(); ++i) {
    const rl::Transition& tr = batch.transitions[i];
    if (tr.done()) {
      ++done;
      end_of_last_episode = i + 1;
    }
    if (i + 1 == batch.transitions.size()) break;
    const rl::Transition& nx = batch.transitions[i + 1];
    if (tr.done()) {
      EXPECT_NE(tr.next_obs, nx.obs) << "no reset after step " << i;
    } else {
      EXPECT_EQ(tr.next_obs, nx.obs) << "step " << i;
    }
  }
  EXPECT_GE(done, 6u);  // 10-step time limit over 60 steps
  ASSERT_EQ(worker.episodes().size(), done);
  std::size_t total_len = 0;
  for (const auto& ep : worker.episodes()) total_len += ep.length;
  EXPECT_EQ(total_len, end_of_last_episode);
}

// The worker samples with its own seeded stream through the parameters it
// was last synced to: replaying its observations through an actor holding
// those parameters, on a stream with the worker's seed, reproduces every
// action and log-probability.
TEST(Worker, ActionsReplayFromTheSyncedPolicyAndTheWorkerSeed) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  const env::ActionSpace space(env::DiscreteSpace(2));
  auto built_from = rl::make_algorithm(spec, 4, space, 1);
  auto synced_to = rl::make_algorithm(spec, 4, space, 2);
  RolloutWorker worker(0, env::make_cartpole_factory(20)(),
                       built_from->make_actor(), 13);
  worker.sync(synced_to->policy_params());
  const rl::WorkerBatch batch = worker.collect(40);

  auto replay = synced_to->make_actor();
  Rng rng(13);
  for (std::size_t i = 0; i < batch.transitions.size(); ++i) {
    const rl::Transition& tr = batch.transitions[i];
    const rl::ActOutput out = replay->act(tr.obs, rng);
    EXPECT_EQ(out.action, tr.action) << "step " << i;
    EXPECT_EQ(out.log_prob, tr.log_prob) << "step " << i;
  }
}

/// Collects one round from `group` and returns the batches by global
/// worker id. Each collection thread writes only its own worker's slot.
std::vector<net::BatchMsg> collect_round(WorkerGroup& group,
                                         std::size_t n_steps,
                                         std::uint64_t version) {
  std::vector<net::BatchMsg> by_id(group.first_id() + group.size());
  group.collect(n_steps, version,
                [&by_id](net::BatchMsg m) { by_id[m.worker] = std::move(m); });
  return by_id;
}

// A worker's streams come from its global id alone (split stream 100 + id
// of the run seed): hosted by itself, as an actor process on another node
// hosts it, it collects the same batch as inside the full group, while its
// siblings start from different states.
TEST(WorkerGroup, WorkerStreamsDependOnTheGlobalIdOnly) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  auto algo =
      rl::make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 1);
  const env::EnvFactory factory = env::make_cartpole_factory(20);
  WorkerGroup all(factory, *algo, 5, 0, 3);
  WorkerGroup alone(factory, *algo, 5, 2, 1);
  EXPECT_EQ(alone.first_id(), 2u);
  EXPECT_EQ(alone.size(), 1u);
  all.sync(algo->policy_params());
  alone.sync(algo->policy_params());

  const std::vector<net::BatchMsg> from_all = collect_round(all, 32, 4);
  const std::vector<net::BatchMsg> from_alone = collect_round(alone, 32, 4);
  const auto& x = from_all[2].transitions;
  const auto& y = from_alone[2].transitions;
  ASSERT_EQ(x.size(), 32u);
  ASSERT_EQ(y.size(), 32u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].obs, y[i].obs);
    EXPECT_EQ(x[i].action, y[i].action);
    EXPECT_EQ(x[i].log_prob, y[i].log_prob);
  }
  EXPECT_EQ(from_alone[2].worker, 2u);
  EXPECT_EQ(from_alone[2].version, 4u);
  EXPECT_NE(from_all[0].transitions[0].obs, from_all[1].transitions[0].obs);
  EXPECT_NE(from_all[1].transitions[0].obs, from_all[2].transitions[0].obs);
}

// Each batch carries the episodes its worker finished since the previous
// batch, so over several rounds every finished episode ships exactly once:
// the shipped lengths add up to the steps taken minus the unfinished tail.
TEST(WorkerGroup, ShipsEachFinishedEpisodeOnce) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  auto algo =
      rl::make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 1);
  WorkerGroup group(env::make_cartpole_factory(10), *algo, 3, 0, 2);
  group.sync(algo->policy_params());

  std::vector<std::size_t> episodes(2, 0), shipped_len(2, 0), steps(2, 0);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (const net::BatchMsg& m : collect_round(group, 25, round)) {
      episodes[m.worker] += m.episodes.size();
      for (const auto& ep : m.episodes) shipped_len[m.worker] += ep.length;
      steps[m.worker] += m.steps;
    }
  }
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(steps[w], 75u);
    EXPECT_GE(episodes[w], 7u) << "worker " << w;  // episodes of <= 10 steps
    // The unfinished tail is shorter than the 10-step limit.
    EXPECT_LE(shipped_len[w], 75u) << "worker " << w;
    EXPECT_GT(shipped_len[w], 65u) << "worker " << w;
  }
}

TEST(Backends, FactoryAndNames) {
  EXPECT_STREQ(make_backend(FrameworkKind::RayRllib)->name(), "RLlib");
  EXPECT_STREQ(make_backend(FrameworkKind::StableBaselines)->name(),
               "Stable Baselines");
  EXPECT_STREQ(make_backend(FrameworkKind::TfAgents)->name(), "TF-Agents");
}

TEST(Backends, SingleNodeFrameworksRejectMultiNode) {
  StableBaselinesBackend sb;
  EXPECT_THROW(sb.run(small_request(FrameworkKind::StableBaselines, 2, 2)),
               InvalidArgument);
  TfAgentsBackend tfa;
  EXPECT_THROW(tfa.run(small_request(FrameworkKind::TfAgents, 2, 2)),
               InvalidArgument);
}

class BackendRunTest : public ::testing::TestWithParam<FrameworkKind> {};

TEST_P(BackendRunTest, ProducesPlausibleMetrics) {
  auto backend = make_backend(GetParam());
  const TrainResult r = backend->run(small_request(GetParam(), 1, 2));
  EXPECT_GE(r.timesteps, 2048u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_GT(r.episodes, 0u);
  EXPECT_GT(r.sim_seconds, 0.0);
  EXPECT_GT(r.sim_energy_joules, 0.0);
  EXPECT_GT(r.reward, 0.0);  // CartPole reward is positive
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST_P(BackendRunTest, DeterministicForFixedSeed) {
  auto b1 = make_backend(GetParam());
  auto b2 = make_backend(GetParam());
  const TrainResult r1 = b1->run(small_request(GetParam(), 1, 2));
  const TrainResult r2 = b2->run(small_request(GetParam(), 1, 2));
  EXPECT_DOUBLE_EQ(r1.reward, r2.reward);
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
  EXPECT_DOUBLE_EQ(r1.sim_energy_joules, r2.sim_energy_joules);
}

TEST_P(BackendRunTest, MoreCoresFasterSimTime) {
  auto b2 = make_backend(GetParam());
  auto b4 = make_backend(GetParam());
  const TrainResult r2 = b2->run(small_request(GetParam(), 1, 2));
  const TrainResult r4 = b4->run(small_request(GetParam(), 1, 4));
  EXPECT_LT(r4.sim_seconds, r2.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, BackendRunTest,
                         ::testing::Values(FrameworkKind::RayRllib,
                                           FrameworkKind::StableBaselines,
                                           FrameworkKind::TfAgents),
                         [](const auto& gen_info) {
                           switch (gen_info.param) {
                             case FrameworkKind::RayRllib: return "RLlib";
                             case FrameworkKind::StableBaselines: return "SB";
                             default: return "TFA";
                           }
                         });

TEST(RllibBackend, TwoNodesFasterThanOne) {
  RllibBackend backend;
  const TrainResult one = backend.run(small_request(FrameworkKind::RayRllib, 1, 4));
  RllibBackend backend2;
  const TrainResult two = backend2.run(small_request(FrameworkKind::RayRllib, 2, 4));
  EXPECT_LT(two.sim_seconds, one.sim_seconds);
}

TEST(RllibBackend, TwoNodesBurnMorePowerPerSecond) {
  RllibBackend b1, b2;
  const TrainResult one = b1.run(small_request(FrameworkKind::RayRllib, 1, 4));
  const TrainResult two = b2.run(small_request(FrameworkKind::RayRllib, 2, 4));
  EXPECT_GT(two.sim_energy_joules / two.sim_seconds,
            one.sim_energy_joules / one.sim_seconds);
}

TEST(StableBaselinesBackend, FewerCoresMeansMoreFrequentUpdates) {
  StableBaselinesBackend b2, b4;
  const TrainResult r2 = b2.run(small_request(FrameworkKind::StableBaselines, 1, 2));
  const TrainResult r4 = b4.run(small_request(FrameworkKind::StableBaselines, 1, 4));
  // Same total timesteps, per-env rollout fixed: the 2-core run updates on
  // smaller batches, hence more iterations.
  EXPECT_GT(r2.iterations, r4.iterations);
}

TEST(TfAgentsBackend, LowerEnergyThanRllibSameDeployment) {
  TfAgentsBackend tfa;
  RllibBackend rllib;
  const TrainResult a = tfa.run(small_request(FrameworkKind::TfAgents, 1, 4));
  const TrainResult b = rllib.run(small_request(FrameworkKind::RayRllib, 1, 4));
  EXPECT_LT(a.sim_energy_joules, b.sim_energy_joules);
}

TEST(Costs, ProfilesMatchTheFrameworkStories) {
  const BackendCosts rllib = default_costs(FrameworkKind::RayRllib);
  const BackendCosts sb = default_costs(FrameworkKind::StableBaselines);
  const BackendCosts tfa = default_costs(FrameworkKind::TfAgents);
  // TF-Agents: the most cost-effective CPU use (paper §VI-B).
  EXPECT_LT(tfa.per_step_overhead_s, sb.per_step_overhead_s);
  EXPECT_LT(tfa.per_step_overhead_s, rllib.per_step_overhead_s);
  EXPECT_LT(tfa.train_tax, rllib.train_tax);
  // Vectorized backends batch their inference; RLlib workers do not.
  EXPECT_LT(sb.inference_batch_efficiency, 1.0);
  EXPECT_LT(tfa.inference_batch_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(rllib.inference_batch_efficiency, 1.0);
}

TEST(RllibBackend, RunsImpalaAlgorithm) {
  TrainRequest req = small_request(FrameworkKind::RayRllib, 2, 2);
  req.algo.kind = rl::AlgoKind::IMPALA;
  req.train_batch_total = 256;
  RllibBackend backend;
  const TrainResult r = backend.run(req);
  EXPECT_GE(r.timesteps, req.total_timesteps);
  EXPECT_GT(r.reward, 0.0);  // CartPole
  EXPECT_GT(r.iterations, 0u);
}

TEST(Backends, EpisodesComeFromAllWorkers) {
  // 2x2 deployment: four workers, each contributing episodes.
  RllibBackend backend;
  const TrainResult r = backend.run(small_request(FrameworkKind::RayRllib, 2, 2));
  // 2048 steps across 4 workers with a 100-step limit: >= 4 x 4 episodes.
  EXPECT_GE(r.episodes, 16u);
}

/// CartPole whose `fail_at`-th step throws.
class FailingEnv final : public env::EnvWrapper {
 public:
  explicit FailingEnv(std::size_t fail_at)
      : EnvWrapper(env::make_cartpole_factory(100)()), fail_at_(fail_at) {}
  env::StepResult step(const Vec& action) override {
    if (++steps_ == fail_at_) throw Error("env step failed");
    return EnvWrapper::step(action);
  }

 private:
  std::size_t fail_at_;
  std::size_t steps_ = 0;
};

TEST(Backends, CollectionFailureSurfacesAsAnError) {
  // 2x2: the factory builds the probe, workers 0..3, then the eval env;
  // only worker 2 (node 1, the remote placement) gets a failing env.
  TrainRequest req = small_request(FrameworkKind::RayRllib, 2, 2);
  auto made = std::make_shared<std::size_t>(0);
  req.env_factory = [made]() -> std::unique_ptr<env::Env> {
    if ((*made)++ == 3) return std::make_unique<FailingEnv>(50);
    return env::make_cartpole_factory(100)();
  };
  RllibBackend backend;
  EXPECT_THROW(backend.run(req), Error);
}

TEST(Backends, FinalPolicyDeploysIntoMatchingActor) {
  StableBaselinesBackend backend;
  TrainRequest req = small_request(FrameworkKind::StableBaselines, 1, 2);
  const TrainResult r = backend.run(req);
  ASSERT_FALSE(r.final_policy.empty());

  // Rebuild the architecture and load the trained parameters.
  auto probe = req.env_factory();
  auto algo = rl::make_algorithm(req.algo, probe->observation_space().dim(),
                                 probe->action_space(), 999);
  auto actor = algo->make_actor();
  EXPECT_NO_THROW(actor->set_params(r.final_policy));
  // The deployed greedy policy performs like the backend's evaluation
  // (same parameters; the eval is greedy and the env deterministic given
  // its seed).
  auto env = req.env_factory();
  env->seed(123);
  Rng rng(1);
  const rl::EvalResult eval = rl::evaluate_policy(*actor, *env, 5, rng, false);
  EXPECT_GT(eval.mean_total_reward, 9.0);  // CartPole: beyond trivial falls
}

TrainRequest pendulum_sac_request() {
  TrainRequest req;
  req.env_factory = [] {
    return std::make_unique<env::TimeLimit>(
        std::make_unique<env::PendulumEnv>(), 50);
  };
  req.algo.kind = rl::AlgoKind::SAC;
  req.algo.sac.warmup_steps = 64;
  req.algo.sac.batch_size = 16;
  req.algo.sac.updates_per_step = 0.1;
  req.deployment = {1, 2};
  req.total_timesteps = 512;
  req.train_batch_total = 128;
  req.steps_per_env = 64;
  req.eval_episodes = 2;
  return req;
}

// The same Pendulum budget for an on-policy learner: PPO and IMPALA run
// their diagonal-Gaussian heads with the state-independent log-std.
TrainRequest pendulum_request(rl::AlgoKind kind, std::size_t nodes) {
  TrainRequest req = pendulum_sac_request();
  req.algo.kind = kind;
  req.algo.ppo.epochs = 2;
  req.algo.ppo.minibatch_size = 32;
  req.deployment = {nodes, 2};
  return req;
}

TEST(Backends, SacRunsThroughBackends) {
  const TrainRequest req = pendulum_sac_request();
  for (const auto kind : {FrameworkKind::RayRllib, FrameworkKind::StableBaselines,
                          FrameworkKind::TfAgents}) {
    auto backend = make_backend(kind);
    const TrainResult r = backend->run(req);
    EXPECT_GE(r.timesteps, 512u) << framework_name(kind);
    EXPECT_LT(r.reward, 0.0) << framework_name(kind);  // Pendulum is negative
  }
}

// Little-endian bytes of every TrainResult field that a campaign can see:
// everything except the four host wall-clock fields.
std::uint64_t result_digest(const TrainResult& r) {
  std::string bytes;
  const auto put_u64 = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto put_f64 = [&put_u64](double d) {
    std::uint64_t v = 0;
    std::memcpy(&v, &d, sizeof v);
    put_u64(v);
  };
  for (const double d : {r.reward, r.sim_seconds, r.sim_energy_joules,
                         r.reward_stddev, r.train_reward, r.net_staleness,
                         r.final_policy_loss, r.final_value_loss,
                         r.final_entropy})
    put_f64(d);
  for (const std::size_t n : {r.timesteps, r.episodes, r.iterations}) put_u64(n);
  put_u64(r.final_policy.size());
  for (std::size_t i = 0; i < r.final_policy.size(); ++i) put_f64(r.final_policy[i]);
  return fnv1a64(bytes);
}

// Each framework's TrainResult, bit for bit (DESIGN.md §17 "One
// schedule"). Every elementary function on the training path is darl's
// own (darl/common/elementary.hpp), so these hold on every x86-64 host:
// the ctest TrainResultBitsArePinnedWithoutFmaLibm reruns this test with
// glibc's FMA and AVX2 variants masked.
TEST(Backends, TrainResultBitsArePinned) {
  struct Case {
    const char* name;
    FrameworkKind kind;
    TrainRequest request;
    std::uint64_t digest;
  };
  TrainRequest impala = small_request(FrameworkKind::RayRllib, 2, 2);
  impala.algo.kind = rl::AlgoKind::IMPALA;
  impala.train_batch_total = 256;
  const std::vector<Case> cases = {
      {"rllib_1x2", FrameworkKind::RayRllib,
       small_request(FrameworkKind::RayRllib, 1, 2), 0x54a23eadb7dd848aull},
      {"rllib_2x2", FrameworkKind::RayRllib,
       small_request(FrameworkKind::RayRllib, 2, 2), 0x71c7ae624e6589e9ull},
      {"rllib_3x2", FrameworkKind::RayRllib,
       small_request(FrameworkKind::RayRllib, 3, 2), 0x58ae1ad2631bd4b1ull},
      {"sb_1x2", FrameworkKind::StableBaselines,
       small_request(FrameworkKind::StableBaselines, 1, 2), 0x20ffcc4639d9c654ull},
      {"tfa_1x2", FrameworkKind::TfAgents,
       small_request(FrameworkKind::TfAgents, 1, 2), 0xf4d76ec7daf934c6ull},
      {"rllib_impala_2x2", FrameworkKind::RayRllib, impala, 0x1b9c0ee3de958d75ull},
      {"rllib_sac", FrameworkKind::RayRllib, pendulum_sac_request(), 0x93fddd05d3e22c69ull},
      {"sb_sac", FrameworkKind::StableBaselines, pendulum_sac_request(), 0x0d3c6a2a925dd8a0ull},
      {"tfa_sac", FrameworkKind::TfAgents, pendulum_sac_request(), 0xc342af9a7ab825e2ull},
      {"sb_ppo_pendulum", FrameworkKind::StableBaselines,
       pendulum_request(rl::AlgoKind::PPO, 1), 0x27ab345ea250b9c6ull},
      {"rllib_impala_pendulum_2x2", FrameworkKind::RayRllib,
       pendulum_request(rl::AlgoKind::IMPALA, 2), 0x490e39db74e85677ull},
  };
  for (const Case& c : cases) {
    const TrainResult r = make_backend(c.kind)->run(c.request);
    EXPECT_EQ(result_digest(r), c.digest)
        << c.name << ": 0x" << std::hex << result_digest(r);
  }
}

}  // namespace
}  // namespace darl::frameworks
