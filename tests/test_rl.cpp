// Tests for the RL substrate: GAE closed forms, replay-buffer semantics,
// PPO/SAC construction, actor snapshots, and evaluation. Learning-quality
// tests (does it actually learn) live in test_rl_learning.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/cartpole.hpp"
#include "darl/env/pendulum.hpp"
#include "darl/nn/distributions.hpp"
#include "darl/obs/trace.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/rl/evaluate.hpp"
#include "darl/rl/factory.hpp"
#include "darl/rl/gae.hpp"
#include "darl/rl/impala.hpp"
#include "darl/rl/policy.hpp"
#include "darl/rl/replay_buffer.hpp"

namespace darl::rl {
namespace {

Transition make_tr(double reward, bool terminated, bool truncated = false) {
  Transition t;
  t.obs = {0.0};
  t.action = {0.0};
  t.next_obs = {0.0};
  t.reward = reward;
  t.terminated = terminated;
  t.truncated = truncated;
  return t;
}

TEST(Gae, SingleTerminalStepIsTdError) {
  const std::vector<Transition> stream{make_tr(2.0, true)};
  const auto r = compute_gae(stream, {0.5}, {99.0}, 0.9, 0.8);
  // terminal: next value ignored; delta = 2.0 - 0.5.
  EXPECT_NEAR(r.advantages[0], 1.5, 1e-12);
  EXPECT_NEAR(r.returns[0], 2.0, 1e-12);
}

TEST(Gae, BootstrapsTruncatedEpisodes) {
  const std::vector<Transition> stream{make_tr(1.0, false, true)};
  const auto r = compute_gae(stream, {0.5}, {2.0}, 0.5, 0.9);
  // delta = 1 + 0.5*2 - 0.5 = 1.5
  EXPECT_NEAR(r.advantages[0], 1.5, 1e-12);
}

TEST(Gae, LambdaOneGivesDiscountedMonteCarloAdvantage) {
  // Two-step episode, gamma=0.5, lambda=1: A_0 = r0 + g r1 - V(s0).
  std::vector<Transition> stream{make_tr(1.0, false), make_tr(2.0, true)};
  const std::vector<double> values{0.3, 0.7};
  const auto r = compute_gae(stream, values, {values[1], 0.0}, 0.5, 1.0);
  EXPECT_NEAR(r.advantages[0], 1.0 + 0.5 * 2.0 - 0.3, 1e-12);
  EXPECT_NEAR(r.advantages[1], 2.0 - 0.7, 1e-12);
  EXPECT_NEAR(r.returns[0], r.advantages[0] + 0.3, 1e-12);
}

TEST(Gae, LambdaZeroGivesOneStepTd) {
  std::vector<Transition> stream{make_tr(1.0, false), make_tr(2.0, true)};
  const std::vector<double> values{0.3, 0.7};
  const auto r = compute_gae(stream, values, {0.7, 0.0}, 0.9, 0.0);
  EXPECT_NEAR(r.advantages[0], 1.0 + 0.9 * 0.7 - 0.3, 1e-12);
}

TEST(Gae, ResetsAcrossEpisodeBoundaries) {
  // Episode ends at index 0; advantage at 1 must not leak into 0's lambda
  // accumulation.
  std::vector<Transition> stream{make_tr(1.0, true), make_tr(5.0, true)};
  const auto r = compute_gae(stream, {0.0, 0.0}, {0.0, 0.0}, 0.9, 0.9);
  EXPECT_NEAR(r.advantages[0], 1.0, 1e-12);
  EXPECT_NEAR(r.advantages[1], 5.0, 1e-12);
}

TEST(Gae, ValidatesInputs) {
  std::vector<Transition> stream{make_tr(1.0, true)};
  EXPECT_THROW(compute_gae(stream, {}, {0.0}, 0.9, 0.9), InvalidArgument);
  EXPECT_THROW(compute_gae(stream, {0.0}, {0.0}, 1.5, 0.9), InvalidArgument);
  EXPECT_THROW(compute_gae(stream, {0.0}, {0.0}, 0.9, -0.1), InvalidArgument);
}

TEST(Gae, NormalizeAdvantages) {
  std::vector<double> adv{1.0, 2.0, 3.0, 4.0};
  normalize_advantages(adv);
  double mean = 0.0;
  for (double a : adv) mean += a;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  // No-ops:
  std::vector<double> single{5.0};
  normalize_advantages(single);
  EXPECT_DOUBLE_EQ(single[0], 5.0);
  std::vector<double> constant{2.0, 2.0, 2.0};
  normalize_advantages(constant);
  EXPECT_DOUBLE_EQ(constant[0], 2.0);
}

TEST(Vtrace, OnPolicyReducesToDiscountedReturns) {
  // With log_ratio = 0 (behaviour == target), rho = c = 1 and
  // vs_t = r_t + gamma * vs_{t+1} — the discounted return.
  std::vector<Transition> stream{make_tr(1.0, false), make_tr(2.0, false),
                                 make_tr(3.0, true)};
  const std::vector<double> values{0.1, 0.2, 0.3};
  const std::vector<double> boots{0.0, 0.0, 0.0};
  const auto vt = compute_vtrace(stream, {0.0, 0.0, 0.0}, values, boots, 0.5,
                                 1.0, 1.0);
  EXPECT_NEAR(vt.vs[2], 3.0, 1e-12);
  EXPECT_NEAR(vt.vs[1], 2.0 + 0.5 * 3.0, 1e-12);
  EXPECT_NEAR(vt.vs[0], 1.0 + 0.5 * 3.5, 1e-12);
  // pg advantage = r + gamma vs_{t+1} - V(s_t).
  EXPECT_NEAR(vt.pg_adv[0], 1.0 + 0.5 * 3.5 - 0.1, 1e-12);
  EXPECT_NEAR(vt.pg_adv[2], 3.0 - 0.3, 1e-12);
  for (double r : vt.rho) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(Vtrace, ClipsLargeImportanceWeights) {
  std::vector<Transition> stream{make_tr(1.0, true)};
  const auto vt = compute_vtrace(stream, {3.0 /* ratio e^3 */}, {0.0}, {0.0},
                                 0.9, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(vt.rho[0], 1.0);
  // Small ratios pass through unclipped.
  const auto vt2 = compute_vtrace(stream, {-1.0}, {0.0}, {0.0}, 0.9, 1.0, 1.0);
  EXPECT_NEAR(vt2.rho[0], std::exp(-1.0), 1e-12);
  EXPECT_NEAR(vt2.vs[0], std::exp(-1.0) * 1.0, 1e-12);
}

TEST(Vtrace, BootstrapsTruncationAndResetsTraces) {
  // Truncated first episode bootstraps from next_obs; the trace must not
  // leak across the boundary.
  std::vector<Transition> stream{make_tr(1.0, false, true), make_tr(5.0, true)};
  const std::vector<double> values{0.5, 0.0};
  const std::vector<double> boots{2.0, 0.0};
  const auto vt = compute_vtrace(stream, {0.0, 0.0}, values, boots, 0.5, 1.0,
                                 1.0);
  EXPECT_NEAR(vt.vs[0], 1.0 + 0.5 * 2.0, 1e-12);
  EXPECT_NEAR(vt.vs[1], 5.0, 1e-12);
}

TEST(Vtrace, ValidatesInputs) {
  std::vector<Transition> stream{make_tr(1.0, true)};
  EXPECT_THROW(compute_vtrace(stream, {}, {0.0}, {0.0}, 0.9, 1.0, 1.0),
               InvalidArgument);
  EXPECT_THROW(compute_vtrace(stream, {0.0}, {0.0}, {0.0}, 2.0, 1.0, 1.0),
               InvalidArgument);
  EXPECT_THROW(compute_vtrace(stream, {0.0}, {0.0}, {0.0}, 0.9, 0.0, 1.0),
               InvalidArgument);
}

TEST(Impala, BuildsActsAndTrains) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::IMPALA;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 3);
  EXPECT_EQ(algo->kind(), AlgoKind::IMPALA);
  EXPECT_STREQ(algo_name(AlgoKind::IMPALA), "IMPALA");

  auto actor = algo->make_actor();
  Rng rng(1);
  auto env = env::make_cartpole_factory(50)();
  env->seed(1);
  WorkerBatch batch;
  Vec obs = env->reset();
  for (int i = 0; i < 64; ++i) {
    const ActOutput a = actor->act(obs, rng);
    const env::StepResult r = env->step(a.action);
    Transition t;
    t.obs = obs;
    t.action = a.action;
    t.reward = r.reward;
    t.next_obs = r.observation;
    t.terminated = r.terminated;
    t.truncated = r.truncated;
    t.log_prob = a.log_prob;
    batch.transitions.push_back(t);
    obs = r.done() ? env->reset() : r.observation;
  }
  const Vec before = algo->policy_params();
  const TrainStats stats = algo->train({batch});
  EXPECT_EQ(stats.samples, 64u);
  EXPECT_EQ(stats.gradient_steps, 1u);  // single-pass learner
  EXPECT_GT(stats.train_cost_mflop, 0.0);
  const Vec after = algo->policy_params();
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

// IMPALA and PPO act through the one ActorCritic actor: a PPO actor loaded
// with IMPALA's policy parameters draws the same actions with the same
// log-probabilities on the same stream, for the categorical and the
// Gaussian head.
TEST(Impala, ActorMatchesPpoActorOnSharedParams) {
  for (const env::ActionSpace& space :
       {env::ActionSpace(env::DiscreteSpace(3)),
        env::ActionSpace(env::BoxSpace(2, -1.0, 1.0))}) {
    AlgorithmSpec impala_spec;
    impala_spec.kind = AlgoKind::IMPALA;
    AlgorithmSpec ppo_spec;
    ppo_spec.kind = AlgoKind::PPO;
    auto impala = make_algorithm(impala_spec, 4, space, 3);
    auto ppo = make_algorithm(ppo_spec, 4, space, 8);
    auto impala_actor = impala->make_actor();
    auto ppo_actor = ppo->make_actor();
    ppo_actor->set_params(impala->policy_params());

    Rng data(10), rng_a(9), rng_b(9);
    for (int i = 0; i < 20; ++i) {
      Vec obs(4);
      for (double& v : obs) v = data.normal(0.0, 1.0);
      const ActOutput a = impala_actor->act(obs, rng_a);
      const ActOutput b = ppo_actor->act(obs, rng_b);
      EXPECT_EQ(a.action, b.action) << "draw " << i;
      EXPECT_EQ(a.log_prob, b.log_prob) << "draw " << i;
      EXPECT_EQ(impala_actor->act_greedy(obs), ppo_actor->act_greedy(obs));
    }
  }
}

TEST(ReplayBuffer, RingOverwriteAndSampling) {
  ReplayBuffer buf(3);
  EXPECT_TRUE(buf.empty());
  for (int i = 0; i < 5; ++i) buf.push(make_tr(static_cast<double>(i), false));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.total_pushed(), 5u);
  // Contents are {3, 4, 2} in slots; rewards seen must be from {2,3,4}.
  Rng rng(1);
  std::vector<const Transition*> sample;
  buf.sample(50, rng, sample);
  EXPECT_EQ(sample.size(), 50u);
  for (const Transition* t : sample) {
    EXPECT_GE(t->reward, 2.0);
    EXPECT_LE(t->reward, 4.0);
  }
  EXPECT_THROW(buf.at(3), InvalidArgument);
  EXPECT_THROW(ReplayBuffer(0), InvalidArgument);
  ReplayBuffer empty(2);
  EXPECT_THROW(empty.sample(1, rng, sample), InvalidArgument);
}

TEST(ReplayBuffer, SamplesEveryStoredTransitionUniformly) {
  ReplayBuffer buf(4);
  for (int i = 0; i < 4; ++i) buf.push(make_tr(static_cast<double>(i), false));
  Rng rng(5);
  const std::size_t n = 40000;
  std::vector<std::size_t> counts(4, 0);
  std::vector<const Transition*> sample;
  buf.sample(n, rng, sample);
  for (const Transition* t : sample) {
    ++counts[static_cast<std::size_t>(t->reward)];
  }
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / static_cast<double>(n), 0.25, 0.015);
  }
}

TEST(Factory, BuildsPpoAndSac) {
  AlgorithmSpec ppo_spec;
  ppo_spec.kind = AlgoKind::PPO;
  auto ppo = make_algorithm(ppo_spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 1);
  EXPECT_EQ(ppo->kind(), AlgoKind::PPO);

  AlgorithmSpec sac_spec;
  sac_spec.kind = AlgoKind::SAC;
  auto sac = make_algorithm(sac_spec, 3, env::ActionSpace(env::BoxSpace(1, -2.0, 2.0)), 1);
  EXPECT_EQ(sac->kind(), AlgoKind::SAC);

  // SAC requires a continuous space.
  EXPECT_THROW(
      make_algorithm(sac_spec, 3, env::ActionSpace(env::DiscreteSpace(2)), 1),
      InvalidArgument);
  EXPECT_STREQ(algo_name(AlgoKind::PPO), "PPO");
  EXPECT_STREQ(algo_name(AlgoKind::SAC), "SAC");
  for (const AlgoKind kind : {AlgoKind::PPO, AlgoKind::SAC, AlgoKind::IMPALA}) {
    EXPECT_EQ(algo_from_name(algo_name(kind)), kind);
  }
  EXPECT_EQ(algo_from_name("DQN"), std::nullopt);
}

TEST(PpoActor, SnapshotRoundTripAndDeterminism) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::PPO;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(3)), 7);
  auto a1 = algo->make_actor();
  auto a2 = algo->make_actor();
  a2->set_params(algo->policy_params());

  Rng r1(5), r2(5);
  const Vec obs{0.1, 0.2, 0.3, 0.4};
  const ActOutput o1 = a1->act(obs, r1);
  const ActOutput o2 = a2->act(obs, r2);
  EXPECT_EQ(o1.action[0], o2.action[0]);
  EXPECT_DOUBLE_EQ(o1.log_prob, o2.log_prob);
  EXPECT_LE(o1.log_prob, 0.0);
  EXPECT_GT(a1->inference_cost_mflop(), 0.0);

  const Vec greedy = a1->act_greedy(obs);
  EXPECT_GE(greedy[0], 0.0);
  EXPECT_LE(greedy[0], 2.0);
  EXPECT_THROW(a1->set_params(Vec{1.0}), InvalidArgument);
}

// A Gaussian actor clips its draw into the box and scores the action it
// returns: each log-probability is log pi of the clipped action under the
// same parameters, the value PPO's ratio and IMPALA's V-trace recompute
// from the stored transition.
TEST(PpoActor, ContinuousActionsClippedToBox) {
  const env::ActionSpace space(env::BoxSpace(1, -0.5, 0.5));
  for (const AlgoKind kind : {AlgoKind::PPO, AlgoKind::IMPALA}) {
    AlgorithmSpec spec;
    spec.kind = kind;
    auto algo = make_algorithm(spec, 2, space, 3);
    const PolicyShape& shape = algo->shape();
    const Vec params = algo->policy_params();
    const auto tail = params.end() - static_cast<std::ptrdiff_t>(shape.tail);
    Rng init(0);
    nn::Mlp net(shape.sizes, shape.activation, init);
    net.set_flat_params(Vec(params.begin(), tail));
    const Vec log_std(tail, params.end());

    auto actor = algo->make_actor();
    Rng rng(1);
    int clipped = 0;
    for (int i = 0; i < 100; ++i) {
      const Vec obs{0.01 * i, -0.02 * i};
      const ActOutput o = actor->act(obs, rng);
      EXPECT_GE(o.action[0], -0.5);
      EXPECT_LE(o.action[0], 0.5);
      clipped += std::abs(o.action[0]) == 0.5;
      EXPECT_EQ(o.log_prob,
                nn::DiagGaussian::log_prob(net.evaluate(obs), log_std, o.action))
          << algo_name(kind) << " draw " << i;
    }
    EXPECT_GT(clipped, 0) << algo_name(kind);
  }
}

TEST(SacActor, ActionsInsideBox) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::SAC;
  auto algo =
      make_algorithm(spec, 3, env::ActionSpace(env::BoxSpace(1, -2.0, 2.0)), 3);
  auto actor = algo->make_actor();
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const ActOutput o = actor->act({0.1, 0.2, 0.3}, rng);
    EXPECT_GT(o.action[0], -2.0);
    EXPECT_LT(o.action[0], 2.0);
  }
  const Vec g = actor->act_greedy({0.1, 0.2, 0.3});
  EXPECT_GE(g[0], -2.0);
  EXPECT_LE(g[0], 2.0);
}

// policy_shape and greedy_action are the one definition of each learner's
// policy network and greedy decode; the actors and darl/serve share them.
TEST(Policy, ShapeAndGreedyActionPerHead) {
  const env::ActionSpace discrete(env::DiscreteSpace(3));
  const env::ActionSpace box(env::BoxSpace(2, -0.5, 4.0));
  const PolicyShape ppo = policy_shape(AlgoKind::PPO, 5, discrete, {8});
  EXPECT_EQ(ppo.sizes, (std::vector<std::size_t>{5, 8, 3}));
  EXPECT_EQ(ppo.activation, nn::Activation::Tanh);
  EXPECT_EQ(ppo.head, PolicyHead::Categorical);
  EXPECT_EQ(ppo.tail, 0u);
  const PolicyShape impala = policy_shape(AlgoKind::IMPALA, 5, box, {8});
  EXPECT_EQ(impala.sizes, (std::vector<std::size_t>{5, 8, 2}));
  EXPECT_EQ(impala.activation, nn::Activation::Tanh);
  EXPECT_EQ(impala.head, PolicyHead::Gaussian);
  EXPECT_EQ(impala.tail, 2u);
  const PolicyShape sac = policy_shape(AlgoKind::SAC, 5, box, {8});
  EXPECT_EQ(sac.sizes, (std::vector<std::size_t>{5, 8, 4}));
  EXPECT_EQ(sac.activation, nn::Activation::ReLU);
  EXPECT_EQ(sac.head, PolicyHead::SquashedGaussian);
  EXPECT_EQ(sac.tail, 0u);
  EXPECT_THROW(policy_shape(AlgoKind::SAC, 5, discrete, {8}), InvalidArgument);

  Vec out(2);
  const double logits[] = {0.1, 0.7, 0.7};  // the first of two maxima wins
  greedy_action(PolicyHead::Categorical, discrete, logits, out.data());
  EXPECT_EQ(out[0], 1.0);
  const double head[] = {-2.0, 0.25, 9.0, 9.0};
  greedy_action(PolicyHead::Gaussian, box, head, out.data());
  EXPECT_EQ(out, (Vec{-0.5, 0.25}));
  greedy_action(PolicyHead::SquashedGaussian, box, head, out.data());
  EXPECT_EQ(out[0], -0.5 + 0.5 * (math::tanh(-2.0) + 1.0) * 4.5);
  EXPECT_EQ(out[1], -0.5 + 0.5 * (math::tanh(0.25) + 1.0) * 4.5);
}

TEST(PpoTrain, RunsAndReportsStats) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::PPO;
  spec.ppo.epochs = 2;
  spec.ppo.minibatch_size = 16;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 11);
  auto actor = algo->make_actor();

  // Collect a batch from CartPole.
  auto env = env::make_cartpole_factory(50)();
  env->seed(1);
  Rng rng(1);
  WorkerBatch batch;
  batch.worker_id = 0;
  Vec obs = env->reset();
  for (int i = 0; i < 128; ++i) {
    const ActOutput a = actor->act(obs, rng);
    const env::StepResult r = env->step(a.action);
    Transition t;
    t.obs = obs;
    t.action = a.action;
    t.reward = r.reward;
    t.next_obs = r.observation;
    t.terminated = r.terminated;
    t.truncated = r.truncated;
    t.log_prob = a.log_prob;
    batch.transitions.push_back(t);
    obs = r.done() ? env->reset() : r.observation;
  }

  const TrainStats stats = algo->train({batch});
  EXPECT_EQ(stats.samples, 128u);
  EXPECT_GT(stats.gradient_steps, 0u);
  EXPECT_GT(stats.train_cost_mflop, 0.0);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));

  // Empty train is a no-op.
  const TrainStats none = algo->train({});
  EXPECT_EQ(none.samples, 0u);
}

TEST(SacTrain, WarmupThenUpdates) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::SAC;
  spec.sac.warmup_steps = 32;
  spec.sac.batch_size = 16;
  spec.sac.updates_per_step = 0.5;
  auto algo =
      make_algorithm(spec, 3, env::ActionSpace(env::BoxSpace(1, -2.0, 2.0)), 13);
  auto actor = algo->make_actor();

  auto env = env::make_pendulum_factory(50)();
  env->seed(2);
  Rng rng(3);
  auto collect = [&](std::size_t n) {
    WorkerBatch batch;
    Vec obs = env->reset();
    for (std::size_t i = 0; i < n; ++i) {
      const ActOutput a = actor->act(obs, rng);
      const env::StepResult r = env->step(a.action);
      Transition t;
      t.obs = obs;
      t.action = a.action;
      t.reward = r.reward;
      t.next_obs = r.observation;
      t.terminated = r.terminated;
      t.truncated = r.truncated;
      batch.transitions.push_back(t);
      obs = r.done() ? env->reset() : r.observation;
    }
    return batch;
  };

  // Below warmup: samples recorded, no gradient steps.
  const TrainStats s1 = algo->train({collect(16)});
  EXPECT_EQ(s1.gradient_steps, 0u);
  // Past warmup: ~updates_per_step * pushed updates.
  const TrainStats s2 = algo->train({collect(64)});
  EXPECT_GT(s2.gradient_steps, 0u);
  EXPECT_GT(s2.train_cost_mflop, 0.0);
}

// SAC has one update path (uniform replay, unweighted critic loss), a
// function of the seed and the data alone: two learners built alike and
// fed the same transitions end with the same parameters, bit for bit.
TEST(SacTrain, SameSeedAndDataGiveIdenticalUpdates) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::SAC;
  spec.sac.warmup_steps = 32;
  spec.sac.batch_size = 16;
  spec.sac.updates_per_step = 0.5;
  const env::ActionSpace space(env::BoxSpace(1, -2.0, 2.0));
  auto a = make_algorithm(spec, 3, space, 19);
  auto b = make_algorithm(spec, 3, space, 19);
  auto actor = a->make_actor();

  auto env = env::make_pendulum_factory(50)();
  env->seed(4);
  Rng rng(4);
  WorkerBatch batch;
  Vec obs = env->reset();
  for (int i = 0; i < 96; ++i) {
    const ActOutput act = actor->act(obs, rng);
    const env::StepResult r = env->step(act.action);
    Transition t;
    t.obs = obs;
    t.action = act.action;
    t.reward = r.reward;
    t.next_obs = r.observation;
    t.terminated = r.terminated;
    t.truncated = r.truncated;
    batch.transitions.push_back(t);
    obs = r.done() ? env->reset() : r.observation;
  }

  const Vec before = a->policy_params();
  const TrainStats sa = a->train({batch});
  const TrainStats sb = b->train({batch});
  EXPECT_GT(sa.gradient_steps, 0u);
  EXPECT_EQ(sa.gradient_steps, sb.gradient_steps);
  EXPECT_TRUE(std::isfinite(sa.value_loss));
  EXPECT_EQ(sa.value_loss, sb.value_loss);
  EXPECT_EQ(sa.policy_loss, sb.policy_loss);
  EXPECT_EQ(a->policy_params(), b->policy_params());
  EXPECT_NE(a->policy_params(), before);
}

/// n transitions of `env` under `actor`, resetting at episode ends.
WorkerBatch rollout(env::Env& env, RolloutActor& actor, Rng& rng,
                    std::size_t n) {
  WorkerBatch batch;
  Vec obs = env.reset();
  for (std::size_t i = 0; i < n; ++i) {
    const ActOutput a = actor.act(obs, rng);
    const env::StepResult r = env.step(a.action);
    Transition t;
    t.obs = obs;
    t.action = a.action;
    t.reward = r.reward;
    t.next_obs = r.observation;
    t.terminated = r.terminated;
    t.truncated = r.truncated;
    t.log_prob = a.log_prob;
    batch.transitions.push_back(t);
    obs = r.done() ? env.reset() : r.observation;
  }
  return batch;
}

/// The span names a traced call of `train` records.
template <class F>
std::set<std::string> traced_span_names(F&& train) {
  obs::clear_spans();
  obs::set_tracing_enabled(true);
  train();
  obs::set_tracing_enabled(false);
  std::set<std::string> names;
  for (const obs::SpanRecord& s : obs::collect_spans()) names.insert(s.name);
  obs::clear_spans();
  return names;
}

// A traced learner says where its update goes: each phase of one update
// is a named span.
TEST(LearnerSpans, TracedSacTrainEmitsItsFiveUpdatePhases) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::SAC;
  spec.sac.warmup_steps = 32;
  spec.sac.batch_size = 16;
  auto algo =
      make_algorithm(spec, 3, env::ActionSpace(env::BoxSpace(1, -2.0, 2.0)), 13);
  auto actor = algo->make_actor();
  auto env = env::make_pendulum_factory(50)();
  env->seed(2);
  Rng rng(3);
  const WorkerBatch batch = rollout(*env, *actor, rng, 64);
  const std::set<std::string> names =
      traced_span_names([&] { EXPECT_GT(algo->train({batch}).gradient_steps, 0u); });
  for (const char* name : {"rl.sac.target", "rl.sac.critic", "rl.sac.actor",
                           "rl.sac.alpha", "rl.sac.polyak"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

TEST(LearnerSpans, TracedPpoTrainEmitsAdvantagesAndEpochs) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::PPO;
  spec.ppo.epochs = 2;
  spec.ppo.minibatch_size = 16;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 11);
  auto actor = algo->make_actor();
  auto env = env::make_cartpole_factory(50)();
  env->seed(1);
  Rng rng(1);
  const WorkerBatch batch = rollout(*env, *actor, rng, 64);
  const std::set<std::string> names =
      traced_span_names([&] { EXPECT_GT(algo->train({batch}).gradient_steps, 0u); });
  EXPECT_EQ(names.count("rl.ppo.advantages"), 1u);
  EXPECT_EQ(names.count("rl.ppo.epoch"), 1u);
}

TEST(LearnerSpans, TracedImpalaTrainEmitsItsVtracePass) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::IMPALA;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 11);
  auto actor = algo->make_actor();
  auto env = env::make_cartpole_factory(50)();
  env->seed(1);
  Rng rng(1);
  const WorkerBatch batch = rollout(*env, *actor, rng, 32);
  const std::set<std::string> names =
      traced_span_names([&] { algo->train({batch}); });
  EXPECT_EQ(names.count("rl.impala.vtrace"), 1u);
}

TEST(Checkpoint, RoundTripPreservesPolicyBehaviour) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::PPO;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 31);

  Checkpoint ck;
  ck.kind = AlgoKind::PPO;
  ck.obs_dim = 4;
  ck.action_dim = 1;
  ck.params = algo->policy_params();

  std::stringstream buf;
  save_checkpoint(buf, ck);
  const Checkpoint loaded = load_checkpoint(buf);
  EXPECT_EQ(loaded.kind, AlgoKind::PPO);
  EXPECT_EQ(loaded.obs_dim, 4u);
  ASSERT_EQ(loaded.params.size(), ck.params.size());

  // The restored parameters drive an identical policy.
  auto a1 = algo->make_actor();
  auto a2 = algo->make_actor();
  a2->set_params(loaded.params);
  const Vec obs{0.1, -0.2, 0.3, 0.4};
  EXPECT_EQ(a1->act_greedy(obs)[0], a2->act_greedy(obs)[0]);
  for (std::size_t i = 0; i < ck.params.size(); ++i) {
    EXPECT_DOUBLE_EQ(ck.params[i], loaded.params[i]);
  }
}

TEST(Checkpoint, RejectsMalformedStreams) {
  std::stringstream empty;
  EXPECT_THROW(load_checkpoint(empty), Error);
  std::stringstream bad_magic("not-a-checkpoint\nPPO 1 1 0\n");
  EXPECT_THROW(load_checkpoint(bad_magic), Error);
  std::stringstream bad_algo("darl-checkpoint-v1\nDQN 1 1 0\n");
  EXPECT_THROW(load_checkpoint(bad_algo), Error);
  std::stringstream truncated("darl-checkpoint-v1\nPPO 1 1 3\n1.0\n2.0\n");
  EXPECT_THROW(load_checkpoint(truncated), Error);
  EXPECT_THROW(load_checkpoint_file("/nonexistent/dir/x.ckpt"), Error);
}

TEST(Checkpoint, V2RoundTripIsExactAndCarriesDigest) {
  Checkpoint ck;
  ck.kind = AlgoKind::SAC;
  ck.obs_dim = 3;
  ck.action_dim = 2;
  ck.params = {0.1, -2.25, 1e-17, 3.0000000000000004, -0.0};

  std::stringstream buf;
  save_checkpoint(buf, ck);
  const std::string text = buf.str();
  EXPECT_NE(text.find("darl-checkpoint-v2"), std::string::npos);
  EXPECT_NE(text.find("fnv1a64 "), std::string::npos);

  const Checkpoint loaded = load_checkpoint(buf);
  EXPECT_EQ(loaded.kind, AlgoKind::SAC);
  EXPECT_EQ(loaded.obs_dim, 3u);
  EXPECT_EQ(loaded.action_dim, 2u);
  // Bitwise round trip: the serving layer's determinism argument depends
  // on deployed weights being the trained weights, not approximations.
  ASSERT_EQ(loaded.params.size(), ck.params.size());
  for (std::size_t i = 0; i < ck.params.size(); ++i) {
    EXPECT_EQ(loaded.params[i], ck.params[i]) << "param " << i;
  }
}

// The bytes save_checkpoint writes are pinned: every checkpoint file on
// disk and every Weights message carries this text, and its fnv1a64
// footer digests it, so a codec change that moved one byte would orphan
// old files. The edge values are spelled out; a real policy vector (4,610
// doubles) is pinned by its length and digest. The expected bytes are
// what an ostream at precision(17) writes, the format of every checkpoint
// darl has written.
TEST(Checkpoint, V2BytesArePinned) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::PPO;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 31);

  Checkpoint edges;
  edges.kind = AlgoKind::SAC;
  edges.obs_dim = 3;
  edges.action_dim = 2;
  edges.params = {-0.0,
                  std::numeric_limits<double>::denorm_min(),
                  std::numeric_limits<double>::min(),
                  std::numeric_limits<double>::max(),
                  1.0 / 3.0,
                  0.1};
  std::ostringstream edges_out;
  save_checkpoint(edges_out, edges);
  EXPECT_EQ(edges_out.str(),
            "darl-checkpoint-v2\n"
            "SAC 3 2 6\n"
            "-0\n"
            "4.9406564584124654e-324\n"
            "2.2250738585072014e-308\n"
            "1.7976931348623157e+308\n"
            "0.33333333333333331\n"
            "0.10000000000000001\n"
            "fnv1a64 2e7185215302c030\n");

  Checkpoint ck = edges;
  ck.kind = AlgoKind::PPO;
  ck.obs_dim = 4;
  ck.action_dim = 1;
  const Vec policy = algo->policy_params();
  ASSERT_EQ(policy.size(), 4610u);
  ck.params.insert(ck.params.end(), policy.begin(), policy.end());
  std::ostringstream out;
  save_checkpoint(out, ck);
  const std::string text = out.str();
  EXPECT_EQ(text.size(), 94580u);
  EXPECT_EQ(fnv1a64(text), 0x23724e427f1507a0ull);

  // Every value comes back with its bits, the sign of -0.0 included
  // (EXPECT_EQ on doubles cannot see that sign).
  std::istringstream in(text);
  const Checkpoint loaded = load_checkpoint(in);
  ASSERT_EQ(loaded.params.size(), ck.params.size());
  EXPECT_EQ(std::memcmp(loaded.params.data(), ck.params.data(),
                        ck.params.size() * sizeof(double)),
            0);
  EXPECT_TRUE(std::signbit(loaded.params[0]));
}

TEST(Checkpoint, V2DetectsCorruptionAndTruncation) {
  Checkpoint ck;
  ck.kind = AlgoKind::PPO;
  ck.obs_dim = 2;
  ck.action_dim = 1;
  ck.params = {1.5, -2.5, 0.25};
  std::stringstream buf;
  save_checkpoint(buf, ck);
  const std::string text = buf.str();

  // Flip one digit of one parameter: the digest no longer matches.
  std::string corrupted = text;
  const std::size_t pos = corrupted.find("1.5");
  ASSERT_NE(pos, std::string::npos);
  corrupted[pos] = '9';
  std::stringstream bad(corrupted);
  EXPECT_THROW(load_checkpoint(bad), CheckpointError);

  // Drop the integrity footer: typed truncation error, not garbage weights.
  std::stringstream no_footer(text.substr(0, text.rfind("fnv1a64")));
  EXPECT_THROW(load_checkpoint(no_footer), CheckpointError);

  // Cut the parameter block short.
  std::stringstream short_params("darl-checkpoint-v2\nPPO 2 1 3\n1.5\n");
  EXPECT_THROW(load_checkpoint(short_params), CheckpointError);
}

// A short stream that claims 10^12 parameters must be a CheckpointError.
// Sizing the parameters from the count would ask for 8 TB first and fail
// as std::bad_alloc, and a smaller lie would be a large allocation.
TEST(Checkpoint, V1ClaimedCountSizesNothing) {
  std::istringstream in("darl-checkpoint-v1\nPPO 4 1 1000000000000\n0.5 0.25\n");
  EXPECT_THROW(load_checkpoint(in), CheckpointError);
}

TEST(Checkpoint, V2ClaimedCountSizesNothing) {
  std::istringstream in("darl-checkpoint-v2\nPPO 4 1 1000000000000\n0.5\n");
  EXPECT_THROW(load_checkpoint(in), CheckpointError);
}

TEST(Checkpoint, LegacyV1FilesStillLoad) {
  std::stringstream legacy(
      "darl-checkpoint-v1\nIMPALA 2 1 4\n0.5\n-1.5\n2\n-0.125\n");
  const Checkpoint loaded = load_checkpoint(legacy);
  EXPECT_EQ(loaded.kind, AlgoKind::IMPALA);
  EXPECT_EQ(loaded.obs_dim, 2u);
  ASSERT_EQ(loaded.params.size(), 4u);
  EXPECT_EQ(loaded.params[1], -1.5);
  EXPECT_EQ(loaded.params[3], -0.125);
}

TEST(Evaluate, RunsEpisodesAndAggregates) {
  AlgorithmSpec spec;
  spec.kind = AlgoKind::PPO;
  auto algo = make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), 17);
  auto actor = algo->make_actor();
  auto env = env::make_cartpole_factory(30)();
  env->seed(5);
  Rng rng(5);
  const EvalResult r = evaluate_policy(*actor, *env, 5, rng);
  EXPECT_EQ(r.episodes, 5u);
  EXPECT_GT(r.mean_length, 0.0);
  EXPECT_GT(r.mean_total_reward, 0.0);  // CartPole rewards are positive
  EXPECT_GT(r.inferences, 0u);
  EXPECT_THROW(evaluate_policy(*actor, *env, 0, rng), InvalidArgument);
}

}  // namespace
}  // namespace darl::rl
