// tests/test_serve.cpp — the micro-batching inference server.
//
// The load-bearing property is the correctness bar from DESIGN.md §12: a
// served action must be bitwise-identical to per-sample Mlp::evaluate +
// greedy decode on the same checkpoint, for every queue/batch/concurrency
// setting — PR 4's ascending-index gemm accumulation makes batching
// invisible to the numerics. The concurrency tests (hot swap under load,
// backpressure, drain) get real teeth in the TSan tree tools/check.sh
// builds.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/rl/factory.hpp"
#include "darl/serve/arrival.hpp"
#include "darl/serve/batch_scheduler.hpp"
#include "darl/serve/policy_store.hpp"
#include "darl/serve/router.hpp"

using namespace darl;
using namespace darl::serve;

namespace {

/// Small discrete policy (4 obs dims -> 3 actions) with seed-determined
/// random weights — two different seeds give two distinguishable versions.
PolicySpec make_discrete_spec(std::uint64_t seed) {
  PolicySpec spec;
  spec.sizes = {4, 16, 3};
  spec.activation = nn::Activation::Tanh;
  Rng rng(seed);
  nn::Mlp net(spec.sizes, spec.activation, rng);
  spec.net_params = net.get_flat_params();
  spec.action_space = env::ActionSpace(env::DiscreteSpace(3));
  spec.head = rl::PolicyHead::Categorical;
  return spec;
}

/// Continuous policy with the SAC-style squashed-mean decode.
PolicySpec make_box_spec(std::uint64_t seed) {
  PolicySpec spec;
  spec.sizes = {4, 16, 4};  // head = mean ++ log-std for a 2-dim box
  spec.activation = nn::Activation::Tanh;
  Rng rng(seed);
  nn::Mlp net(spec.sizes, spec.activation, rng);
  spec.net_params = net.get_flat_params();
  spec.action_space = env::ActionSpace(env::BoxSpace(2, -1.5, 2.0));
  spec.head = rl::PolicyHead::SquashedGaussian;
  return spec;
}

Vec random_obs(Rng& rng) {
  Vec obs(4);
  for (double& v : obs) v = rng.uniform(-1.0, 1.0);
  return obs;
}

bool bitwise_equal(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Spin until the scheduler's queue holds `want` requests (clients block
/// inside serve(), so enqueueing is asynchronous from the test's view).
void wait_for_queue_depth(const BatchScheduler& server, std::size_t want) {
  for (int i = 0; i < 20000 && server.queue_depth() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queue_depth(), want);
}

}  // namespace

// ---------------------------------------------------------------------------
// PolicyStore

TEST(PolicyStore, PublishesMonotonicVersionsAndRetainsOld) {
  PolicyStore store;
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.version_count(), 0u);

  EXPECT_EQ(store.publish(make_discrete_spec(1)), 1u);
  const PolicyVersion* v1 = store.current();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->id, 1u);
  EXPECT_NE(v1->params_digest, 0u);

  EXPECT_EQ(store.publish(make_discrete_spec(2)), 2u);
  const PolicyVersion* v2 = store.current();
  EXPECT_EQ(v2->id, 2u);
  EXPECT_EQ(store.version_count(), 2u);

  // The old version stays fully readable after the swap — this is what
  // lets in-flight micro-batches finish on the version they started with.
  EXPECT_EQ(v1->spec.sizes.size(), 3u);
  EXPECT_NE(v1->params_digest, v2->params_digest);
}

TEST(PolicyStore, RejectsParamCountMismatch) {
  PolicySpec spec = make_discrete_spec(3);
  spec.net_params.pop_back();
  PolicyStore store;
  EXPECT_THROW(store.publish(std::move(spec)), Error);
}

// An output layer narrower than its head's decode would be read past its
// end: the squashed-Gaussian head reads mean ‖ log-std, 4 values for a
// 2-dim box, from a 1-wide layer.
TEST(PolicyStore, RejectsOutputLayerNarrowerThanItsHead) {
  PolicySpec spec = make_box_spec(4);
  spec.sizes = {4, 16, 1};
  Rng rng(4);
  spec.net_params = nn::Mlp(spec.sizes, spec.activation, rng).get_flat_params();
  PolicyStore store;
  EXPECT_THROW(store.publish(spec), InvalidArgument);
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_THROW(DirectPolicy{spec}, InvalidArgument);
}

// A categorical head cannot decode into a box: the scheduler would build
// and then throw inside its worker thread on the first request.
TEST(PolicyStore, RejectsHeadThatCannotActInTheActionSpace) {
  PolicySpec spec = make_discrete_spec(5);  // 3-wide output layer
  spec.action_space = env::ActionSpace(env::BoxSpace(3, -1.0, 1.0));
  PolicyStore store;
  EXPECT_THROW(store.publish(spec), InvalidArgument);
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_THROW(DirectPolicy{spec}, InvalidArgument);
}

TEST(PolicySpec, FromCheckpointMatchesAlgorithmArchitectures) {
  // PPO discrete: all parameters are network parameters.
  rl::AlgorithmSpec algo_spec;
  algo_spec.kind = rl::AlgoKind::PPO;
  const env::ActionSpace discrete(env::DiscreteSpace(2));
  auto ppo = rl::make_algorithm(algo_spec, 4, discrete, 7);
  rl::Checkpoint ck;
  ck.kind = rl::AlgoKind::PPO;
  ck.obs_dim = 4;
  ck.action_dim = 1;
  ck.params = ppo->policy_params();
  const PolicySpec ppo_spec = policy_spec_from_checkpoint(ck, discrete);
  EXPECT_EQ(ppo_spec.sizes, (std::vector<std::size_t>{4, 64, 64, 2}));
  EXPECT_EQ(ppo_spec.activation, nn::Activation::Tanh);
  EXPECT_EQ(ppo_spec.head, rl::PolicyHead::Categorical);
  EXPECT_EQ(ppo_spec.net_params.size(), ck.params.size());
  EXPECT_EQ(ppo_spec.action_space.action_dim(), 1u);

  // PPO continuous: the state-independent log-std tail is split off.
  const env::ActionSpace box(env::BoxSpace(2, -1.0, 1.0));
  auto ppo_box = rl::make_algorithm(algo_spec, 4, box, 7);
  rl::Checkpoint ck_box;
  ck_box.kind = rl::AlgoKind::PPO;
  ck_box.obs_dim = 4;
  ck_box.action_dim = 2;
  ck_box.params = ppo_box->policy_params();
  const PolicySpec box_spec = policy_spec_from_checkpoint(ck_box, box);
  EXPECT_EQ(box_spec.head, rl::PolicyHead::Gaussian);
  EXPECT_EQ(box_spec.net_params.size() + 2, ck_box.params.size());

  // SAC: twin-headed actor, no tail.
  rl::AlgorithmSpec sac_spec;
  sac_spec.kind = rl::AlgoKind::SAC;
  auto sac = rl::make_algorithm(sac_spec, 4, box, 7);
  rl::Checkpoint ck_sac;
  ck_sac.kind = rl::AlgoKind::SAC;
  ck_sac.obs_dim = 4;
  ck_sac.action_dim = 2;
  ck_sac.params = sac->policy_params();
  const PolicySpec sac_policy = policy_spec_from_checkpoint(ck_sac, box);
  EXPECT_EQ(sac_policy.sizes.back(), 4u);
  EXPECT_EQ(sac_policy.activation, nn::Activation::ReLU);
  EXPECT_EQ(sac_policy.head, rl::PolicyHead::SquashedGaussian);

  // Architecture mismatch is a typed checkpoint error.
  EXPECT_THROW(policy_spec_from_checkpoint(ck, discrete, {32}),
               rl::CheckpointError);
}

// ---------------------------------------------------------------------------
// Bitwise served-vs-direct equivalence

namespace {

/// Hammer one scheduler config from `clients` threads and compare every
/// served action bitwise against the per-sample direct path.
void run_equivalence(const ServeConfig& config, std::size_t clients,
                     std::size_t requests_per_client) {
  PolicyStore store;
  store.publish(make_discrete_spec(11));
  BatchScheduler server(store, config);

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> not_ok{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      DirectPolicy direct(store.current()->spec);
      Rng rng(100 + c);
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        const Vec obs = random_obs(rng);
        const Response response = server.serve(obs);
        if (response.outcome != Outcome::Ok || response.version != 1) {
          not_ok.fetch_add(1);
          continue;
        }
        if (!bitwise_equal(response.action, direct.act(obs))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(not_ok.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace

TEST(Serve, BitwiseMatchesDirectBatchSizeOne) {
  ServeConfig config;
  config.max_batch = 1;
  config.max_delay_us = 0.0;
  config.workers = 1;
  run_equivalence(config, 4, 50);
}

TEST(Serve, BitwiseMatchesDirectSmallWindow) {
  ServeConfig config;
  config.max_batch = 8;
  config.max_delay_us = 200.0;
  config.workers = 1;
  run_equivalence(config, 8, 40);
}

TEST(Serve, BitwiseMatchesDirectWideWindowWorkerPool) {
  ServeConfig config;
  config.max_batch = 32;
  config.max_delay_us = 1000.0;
  config.workers = 4;
  run_equivalence(config, 8, 40);
}

TEST(Serve, BitwiseMatchesDirectContinuousDecode) {
  PolicyStore store;
  store.publish(make_box_spec(21));
  ServeConfig config;
  config.max_batch = 4;
  config.max_delay_us = 100.0;
  BatchScheduler server(store, config);

  DirectPolicy direct(store.current()->spec);
  Rng rng(5);
  for (int r = 0; r < 50; ++r) {
    const Vec obs = random_obs(rng);
    const Response response = server.serve(obs);
    ASSERT_EQ(response.outcome, Outcome::Ok);
    ASSERT_EQ(response.action.size(), 2u);
    EXPECT_TRUE(bitwise_equal(response.action, direct.act(obs)));
  }
}

// A learner's policy snapshot, published as a checkpoint, is served as
// the learner's own actor decides greedily: the served == trained contract
// for every head a learner trains (DESIGN.md §12).
TEST(Serve, ServesEachLearnersGreedyActionBitwise) {
  const struct {
    rl::AlgoKind kind;
    bool discrete;
  } learners[] = {
      {rl::AlgoKind::PPO, true},    {rl::AlgoKind::PPO, false},
      {rl::AlgoKind::IMPALA, true}, {rl::AlgoKind::IMPALA, false},
      {rl::AlgoKind::SAC, false},
  };
  for (const auto& [kind, discrete] : learners) {
    // A narrow, off-centre box, so that clipping and scaling both matter.
    const env::ActionSpace space =
        discrete ? env::ActionSpace(env::DiscreteSpace(3))
                 : env::ActionSpace(env::BoxSpace(2, -0.25, 0.5));
    SCOPED_TRACE(std::string(rl::algo_name(kind)) + " over " +
                 space.describe());
    rl::AlgorithmSpec algo_spec;
    algo_spec.kind = kind;
    auto algo = rl::make_algorithm(algo_spec, 4, space, 17);
    rl::Checkpoint ck;
    ck.kind = kind;
    ck.obs_dim = 4;
    ck.action_dim = space.action_dim();
    ck.params = algo->policy_params();

    PolicyStore store;
    store.publish_checkpoint(ck, space);
    auto trained = algo->make_actor();
    trained->set_params(ck.params);
    DirectPolicy direct(store.current()->spec);
    BatchScheduler server(store, ServeConfig{});

    Rng rng(23);
    std::size_t direct_mismatches = 0, served_mismatches = 0;
    for (int r = 0; r < 128; ++r) {
      Vec obs(4);
      for (double& v : obs) v = rng.uniform(-3.0, 3.0);
      const Vec want = trained->act_greedy(obs);
      const Response response = server.serve(obs);
      ASSERT_EQ(response.outcome, Outcome::Ok);
      if (!bitwise_equal(response.action, want)) ++served_mismatches;
      if (!bitwise_equal(direct.act(obs), want)) ++direct_mismatches;
    }
    EXPECT_EQ(served_mismatches, 0u);
    EXPECT_EQ(direct_mismatches, 0u);
  }
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Serve, RejectsWrongObservationDimension) {
  PolicyStore store;
  store.publish(make_discrete_spec(31));
  BatchScheduler server(store, ServeConfig{});
  EXPECT_THROW(server.serve(Vec(3, 0.0)), InvalidArgument);
}

TEST(Serve, RequiresAPublishedVersion) {
  PolicyStore store;
  EXPECT_THROW(BatchScheduler(store, ServeConfig{}), Error);
}

TEST(Serve, DeadlineReturnsTimedOutInsteadOfBlocking) {
  PolicyStore store;
  store.publish(make_discrete_spec(41));
  ServeConfig config;
  config.workers = 0;  // nothing dispatches: the queue never drains
  BatchScheduler server(store, config);

  Rng rng(1);
  const Response response = server.serve(random_obs(rng), /*deadline_us=*/5000.0);
  EXPECT_EQ(response.outcome, Outcome::TimedOut);
  EXPECT_GE(response.latency_us, 5000.0);
  // The abandoned request removed itself from the queue.
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(Serve, BackpressureRejectsWhenQueueIsFull) {
  PolicyStore store;
  store.publish(make_discrete_spec(51));
  ServeConfig config;
  config.workers = 0;
  config.queue_capacity = 2;
  BatchScheduler server(store, config);

  Response blocked_a, blocked_b;
  std::thread a([&] {
    Rng rng(2);
    blocked_a = server.serve(random_obs(rng), /*deadline_us=*/3e5);
  });
  std::thread b([&] {
    Rng rng(3);
    blocked_b = server.serve(random_obs(rng), /*deadline_us=*/3e5);
  });
  wait_for_queue_depth(server, 2);

  // Queue full: the next request is rejected immediately, not blocked.
  Rng rng(4);
  Stopwatch reject_time;
  const Response rejected = server.serve(random_obs(rng), /*deadline_us=*/3e5);
  EXPECT_EQ(rejected.outcome, Outcome::RejectedFull);
  EXPECT_LT(reject_time.seconds(), 0.25);

  a.join();
  b.join();
  EXPECT_EQ(blocked_a.outcome, Outcome::TimedOut);
  EXPECT_EQ(blocked_b.outcome, Outcome::TimedOut);
}

TEST(Serve, GatherFlushServesLonelyRequestBeforeWindowExpires) {
  PolicyStore store;
  store.publish(make_discrete_spec(45));
  ServeConfig config;
  config.max_batch = 16;
  config.max_delay_us = 10e6;  // a 10 s window, cut short by yield-gather
  config.gather = true;
  config.workers = 1;
  BatchScheduler server(store, config);

  Rng rng(8);
  Stopwatch clock;
  const Response response = server.serve(random_obs(rng));
  EXPECT_EQ(response.outcome, Outcome::Ok);
  // Served after roughly one idle gap, nowhere near the 10 s window.
  EXPECT_LT(clock.seconds(), 5.0);
}

// ---------------------------------------------------------------------------
// Hot swap

TEST(Serve, HotSwapUnderLoadServesEachRequestFromOneVersion) {
  PolicyStore store;
  const PolicySpec spec_v1 = make_discrete_spec(61);
  const PolicySpec spec_v2 = make_discrete_spec(62);
  store.publish(spec_v1);

  ServeConfig config;
  config.max_batch = 8;
  config.max_delay_us = 100.0;
  config.workers = 2;
  config.queue_capacity = 1024;
  BatchScheduler server(store, config);

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> bad_version{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      DirectPolicy direct_v1(spec_v1);
      DirectPolicy direct_v2(spec_v2);
      Rng rng(200 + c);
      for (int r = 0; r < 150; ++r) {
        const Vec obs = random_obs(rng);
        const Response response = server.serve(obs);
        if (response.outcome != Outcome::Ok) {
          bad_version.fetch_add(1);
          continue;
        }
        // Whichever version served the request, the action must be that
        // version's exact greedy decision — never a blend.
        if (response.version == 1) {
          if (!bitwise_equal(response.action, direct_v1.act(obs)))
            mismatches.fetch_add(1);
        } else if (response.version == 2) {
          if (!bitwise_equal(response.action, direct_v2.act(obs)))
            mismatches.fetch_add(1);
        } else {
          bad_version.fetch_add(1);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  store.publish(spec_v2);  // swap under live traffic
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(bad_version.load(), 0u);

  // After the swap has settled, new requests are served by version 2.
  Rng rng(9);
  const Response after = server.serve(random_obs(rng));
  EXPECT_EQ(after.outcome, Outcome::Ok);
  EXPECT_EQ(after.version, 2u);
}

// A version that changes a served tenant's interface is refused at
// publish: the tenant's schedulers were sized by the version they were
// built with, and a worker thread would otherwise die on the first request
// after the swap. Nothing is stored, and the live version keeps serving.
TEST(Serve, PublishRefusesAVersionThatChangesTheTenantsInterface) {
  PolicyStore store;
  PolicySpec v1 = make_discrete_spec(71);
  v1.sizes = {4, 8, 3};
  Rng init(71);
  v1.net_params = nn::Mlp(v1.sizes, v1.activation, init).get_flat_params();
  store.publish(v1);
  BatchScheduler server(store, ServeConfig{});

  PolicySpec wider_input = v1;
  wider_input.sizes = {5, 8, 3};
  wider_input.net_params =
      nn::Mlp(wider_input.sizes, wider_input.activation, init).get_flat_params();
  ASSERT_THROW(store.publish(wider_input), InvalidArgument);

  // One encoded action index before, a 2-dim box action after.
  ASSERT_THROW(store.publish(make_box_spec(73)), InvalidArgument);

  EXPECT_EQ(store.version_count(), 1u);
  const Response served = server.serve(Vec{0.1, -0.2, 0.3, -0.4});
  EXPECT_EQ(served.outcome, Outcome::Ok);
  EXPECT_EQ(served.version, 1u);
  EXPECT_TRUE(bitwise_equal(served.action,
                            DirectPolicy(v1).act(Vec{0.1, -0.2, 0.3, -0.4})));

  // A version with the same interface still swaps in.
  EXPECT_EQ(store.publish(make_discrete_spec(72)), 2u);
}

// ---------------------------------------------------------------------------
// Shutdown

TEST(Serve, ShutdownDrainsQueueThenRejects) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();

  PolicyStore store;
  store.publish(make_discrete_spec(71));
  ServeConfig config;
  config.max_batch = 16;
  config.max_delay_us = 10e6;  // 10 s window: nothing flushes on its own
  config.gather = false;       // fixed window, no early gather flush
  config.workers = 1;
  config.queue_capacity = 32;
  BatchScheduler server(store, config);

  constexpr std::size_t kClients = 8;
  std::vector<Response> responses(kClients);
  std::vector<Vec> observations(kClients);
  {
    Rng rng(6);
    for (auto& obs : observations) obs = random_obs(rng);
  }
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] { responses[c] = server.serve(observations[c]); });
  }
  // All eight sit in the batching window (fewer than max_batch arrived).
  wait_for_queue_depth(server, kClients);

  server.shutdown();  // flushes the window, serves all eight, joins
  for (auto& t : clients) t.join();

  DirectPolicy direct(store.current()->spec);
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(responses[c].outcome, Outcome::Ok) << "client " << c;
    EXPECT_TRUE(bitwise_equal(responses[c].action, direct.act(observations[c])));
  }

  // Everything drained as one micro-batch of eight.
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counters.at("serve.served"), kClients);
  EXPECT_EQ(snap.counters.at("serve.batches"), 1u);

  // The server no longer admits work.
  Rng rng(7);
  const Response rejected = server.serve(random_obs(rng));
  EXPECT_EQ(rejected.outcome, Outcome::RejectedShutdown);
  obs::set_metrics_enabled(false);
}

TEST(Serve, OutcomeNamesAreStable) {
  EXPECT_STREQ(outcome_name(Outcome::Ok), "ok");
  EXPECT_STREQ(outcome_name(Outcome::RejectedFull), "rejected-full");
  EXPECT_STREQ(outcome_name(Outcome::RejectedShutdown), "rejected-shutdown");
  EXPECT_STREQ(outcome_name(Outcome::TimedOut), "timed-out");
  EXPECT_STREQ(outcome_name(Outcome::RejectedQuota), "rejected-quota");
  EXPECT_STREQ(outcome_name(Outcome::Shed), "shed");
}

// ---------------------------------------------------------------------------
// Serving-path observability (latency by outcome, per-shard queue gauges)

TEST(ServeObs, LatencyRecordedForEveryOutcome) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();

  PolicyStore store;
  store.publish(make_discrete_spec(81));
  {
    ServeConfig ok_config;
    BatchScheduler server(store, ok_config);
    Rng rng(1);
    ASSERT_EQ(server.serve(random_obs(rng)).outcome, Outcome::Ok);
  }
  {
    ServeConfig stuck;  // nothing dispatches: deadline + full queue paths
    stuck.workers = 0;
    stuck.queue_capacity = 1;
    BatchScheduler server(store, stuck);
    Response blocked;
    std::thread holder([&] {
      Rng rng(2);
      blocked = server.serve(random_obs(rng), /*deadline_us=*/3e5);
    });
    wait_for_queue_depth(server, 1);
    Rng rng(3);
    ASSERT_EQ(server.serve(random_obs(rng)).outcome, Outcome::RejectedFull);
    holder.join();
    ASSERT_EQ(blocked.outcome, Outcome::TimedOut);
    server.shutdown();
    ASSERT_EQ(server.serve(random_obs(rng)).outcome,
              Outcome::RejectedShutdown);
  }

  // The pre-fleet scheduler only timed the Ok path; rejected and timed-out
  // requests were invisible in the latency telemetry. Every outcome now
  // lands in its own labeled series.
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  for (const char* outcome :
       {"ok", "rejected-full", "rejected-shutdown", "timed-out"}) {
    const std::string key =
        std::string("serve.latency_us{outcome=\"") + outcome + "\"}";
    auto it = snap.histograms.find(key);
    ASSERT_NE(it, snap.histograms.end()) << key;
    EXPECT_GE(it->second.count, 1u) << key;
  }
  obs::set_metrics_enabled(false);
}

TEST(ServeObs, QueueDepthGaugesArePerShard) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();

  PolicyStore store;
  store.publish(make_discrete_spec(82));
  RouterConfig config;
  config.shards = 2;
  config.shard.workers = 0;  // requests park in the queue
  Router router(store, config);

  // One key per shard (shard_for is a stable hash, so probe for them).
  std::uint64_t key0 = 0, key1 = 0;
  for (std::uint64_t k = 0; router.shard_for(key1) != 1; ++k) key1 = k;
  for (std::uint64_t k = 0; router.shard_for(key0) != 0; ++k) key0 = k;

  std::vector<std::thread> holders;
  for (const std::uint64_t key : {key0, key0, key1}) {
    holders.emplace_back([&, key] {
      Rng rng(11);
      (void)router.serve("", key, random_obs(rng), Priority::Control,
                         /*deadline_us=*/5e5);
    });
  }
  BatchScheduler* shard0 = router.shard("", 0);
  BatchScheduler* shard1 = router.shard("", 1);
  ASSERT_NE(shard0, nullptr);
  ASSERT_NE(shard1, nullptr);
  wait_for_queue_depth(*shard0, 2);
  wait_for_queue_depth(*shard1, 1);

  // The pre-fleet gauge was one global slot, so concurrent shards
  // overwrote each other (last-writer-wins). Each shard now owns a
  // labeled gauge updated under its queue lock.
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(
      snap.gauges.at("serve.queue_depth{shard=\"0\",tenant=\"default\"}"),
      2.0);
  EXPECT_EQ(
      snap.gauges.at("serve.queue_depth{shard=\"1\",tenant=\"default\"}"),
      1.0);

  for (auto& t : holders) t.join();  // deadlines abandon the queue
  const obs::RegistrySnapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(
      after.gauges.at("serve.queue_depth{shard=\"0\",tenant=\"default\"}"),
      0.0);
  EXPECT_EQ(
      after.gauges.at("serve.queue_depth{shard=\"1\",tenant=\"default\"}"),
      0.0);
  obs::set_metrics_enabled(false);
}

// ---------------------------------------------------------------------------
// Multi-tenant PolicyStore

TEST(PolicyStore, TenantsHaveIndependentVersionChains) {
  PolicyStore store;
  EXPECT_EQ(store.tenant("a"), nullptr);
  EXPECT_EQ(store.current("a"), nullptr);

  EXPECT_EQ(store.publish("a", make_discrete_spec(1)), 1u);
  EXPECT_EQ(store.publish("b", make_discrete_spec(2)), 1u);
  EXPECT_EQ(store.publish("a", make_discrete_spec(3)), 2u);

  // Hot-swapping tenant a never advanced tenant b's chain.
  EXPECT_EQ(store.version_count("a"), 2u);
  EXPECT_EQ(store.version_count("b"), 1u);
  EXPECT_EQ(store.current("a")->id, 2u);
  EXPECT_EQ(store.current("b")->id, 1u);

  // The unnamed tenant is untouched by named publishes.
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.version_count(), 0u);
  EXPECT_EQ(store.tenant_names(), (std::vector<std::string>{"a", "b"}));

  // Tenant handles are stable across publishes.
  const PolicyStore::Tenant* a = store.tenant("a");
  store.publish("a", make_discrete_spec(4));
  EXPECT_EQ(store.tenant("a"), a);
  EXPECT_EQ(a->current()->id, 3u);
}

// ---------------------------------------------------------------------------
// Router: sharding, quotas, shedding, fleet lifecycle

TEST(Router, ShardAssignmentIsStableAndCoversAllShards) {
  PolicyStore store;
  store.publish(make_discrete_spec(91));
  RouterConfig config;
  config.shards = 4;
  Router router(store, config);

  std::vector<std::size_t> hits(config.shards, 0);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const std::size_t shard = router.shard_for(key);
    ASSERT_LT(shard, config.shards);
    // Stable: the same key maps to the same shard on every call.
    EXPECT_EQ(router.shard_for(key), shard);
    ++hits[shard];
  }
  // fnv1a64 spreads sequential keys: every shard takes real traffic.
  for (std::size_t s = 0; s < config.shards; ++s) {
    EXPECT_GT(hits[s], 100u) << "shard " << s;
  }
  router.shutdown();
}

TEST(Router, ServesTenantsFromTheirOwnPolicies) {
  PolicyStore store;
  const PolicySpec spec_a = make_discrete_spec(92);
  const PolicySpec spec_b = make_box_spec(93);
  store.publish("a", spec_a);
  store.publish("b", spec_b);

  RouterConfig config;
  config.shards = 2;
  Router router(store, config);
  EXPECT_EQ(router.tenant_names(), (std::vector<std::string>{"a", "b"}));

  DirectPolicy direct_a(spec_a);
  DirectPolicy direct_b(spec_b);
  Rng rng(14);
  for (std::uint64_t r = 0; r < 40; ++r) {
    const Vec obs = random_obs(rng);
    const Response from_a = router.serve("a", r, obs);
    ASSERT_EQ(from_a.outcome, Outcome::Ok);
    EXPECT_TRUE(bitwise_equal(from_a.action, direct_a.act(obs)));
    const Response from_b = router.serve("b", r, obs);
    ASSERT_EQ(from_b.outcome, Outcome::Ok);
    EXPECT_TRUE(bitwise_equal(from_b.action, direct_b.act(obs)));
  }
  EXPECT_THROW(router.serve("nope", 1, random_obs(rng)), Error);
  router.shutdown();
}

TEST(Router, QuotaRejectsExcessInFlightPerTenant) {
  PolicyStore store;
  store.publish("a", make_discrete_spec(94));
  store.publish("b", make_discrete_spec(95));
  RouterConfig config;
  config.shards = 2;
  config.shard.workers = 0;  // requests park: in-flight stays high
  config.default_quota = 2;
  Router router(store, config);

  std::vector<std::thread> holders;
  for (int h = 0; h < 2; ++h) {
    holders.emplace_back([&, h] {
      Rng rng(20 + h);
      (void)router.serve("a", static_cast<std::uint64_t>(h), random_obs(rng),
                         Priority::Control, /*deadline_us=*/5e5);
    });
  }
  const auto tenant_in_flight = [&](const std::string& tenant) {
    return router.queue_depth(tenant, 0) + router.queue_depth(tenant, 1);
  };
  for (int i = 0; i < 20000 && tenant_in_flight("a") < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(tenant_in_flight("a"), 2u);

  // Tenant a is at quota: rejected immediately, without a queue slot.
  Rng rng(30);
  Stopwatch reject_time;
  EXPECT_EQ(router.serve("a", 7, random_obs(rng)).outcome,
            Outcome::RejectedQuota);
  EXPECT_LT(reject_time.seconds(), 0.25);
  // Tenant b's quota is its own: it still admits (and times out parked,
  // since nothing dispatches — admission is what is under test).
  EXPECT_EQ(router.serve("b", 7, random_obs(rng), Priority::Normal,
                         /*deadline_us=*/5000.0)
                .outcome,
            Outcome::TimedOut);

  // Raising the quota readmits tenant a.
  router.set_quota("a", 8);
  EXPECT_EQ(router.serve("a", 9, random_obs(rng), Priority::Normal,
                         /*deadline_us=*/5000.0)
                .outcome,
            Outcome::TimedOut);
  for (auto& t : holders) t.join();
  router.shutdown();
}

TEST(Router, ShedsLowestPriorityFirstAndNeverControl) {
  PolicyStore store;
  store.publish(make_discrete_spec(96));
  RouterConfig config;
  config.shards = 1;  // one queue: depth is fully controlled
  config.shard.workers = 0;
  config.shard.queue_capacity = 8;
  config.shed_low = 0.25;     // shed Low at depth >= 2
  config.shed_normal = 0.50;  // shed Normal at depth >= 4
  config.shed_high = 0.75;    // shed High at depth >= 6
  Router router(store, config);
  BatchScheduler* shard = router.shard("", 0);
  ASSERT_NE(shard, nullptr);

  std::vector<std::thread> holders;
  const auto park = [&](std::size_t count) {
    for (std::size_t h = 0; h < count; ++h) {
      holders.emplace_back([&] {
        Rng rng(40);
        (void)router.serve("", 1, random_obs(rng), Priority::Control,
                           /*deadline_us=*/1e6);
      });
    }
  };
  Rng rng(41);

  park(2);
  wait_for_queue_depth(*shard, 2);
  // Depth 2: Low sheds, Normal and High still admit.
  EXPECT_EQ(router.serve("", 1, random_obs(rng), Priority::Low).outcome,
            Outcome::Shed);
  EXPECT_EQ(router.serve("", 1, random_obs(rng), Priority::Normal,
                         /*deadline_us=*/2000.0)
                .outcome,
            Outcome::TimedOut);

  park(2);
  wait_for_queue_depth(*shard, 4);
  // Depth 4: Normal sheds too; High still admits.
  EXPECT_EQ(router.serve("", 1, random_obs(rng), Priority::Normal).outcome,
            Outcome::Shed);
  EXPECT_EQ(router.serve("", 1, random_obs(rng), Priority::High,
                         /*deadline_us=*/2000.0)
                .outcome,
            Outcome::TimedOut);

  park(2);
  wait_for_queue_depth(*shard, 6);
  // Depth 6: every lane sheds except Control, which only the hard queue
  // capacity can stop.
  EXPECT_EQ(router.serve("", 1, random_obs(rng), Priority::High).outcome,
            Outcome::Shed);
  EXPECT_EQ(router.serve("", 1, random_obs(rng), Priority::Control,
                         /*deadline_us=*/2000.0)
                .outcome,
            Outcome::TimedOut);

  park(2);
  wait_for_queue_depth(*shard, 8);
  // Queue full: even Control gets backpressure, typed as RejectedFull.
  EXPECT_EQ(router.serve("", 1, random_obs(rng), Priority::Control).outcome,
            Outcome::RejectedFull);

  for (auto& t : holders) t.join();
  router.shutdown();
}

TEST(Router, HotSwapsOneTenantWhileAnotherServes) {
  PolicyStore store;
  const PolicySpec spec_a1 = make_discrete_spec(97);
  const PolicySpec spec_a2 = make_discrete_spec(98);
  const PolicySpec spec_b = make_discrete_spec(99);
  store.publish("a", spec_a1);
  store.publish("b", spec_b);
  RouterConfig config;
  config.shards = 2;
  Router router(store, config);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> b_errors{0};
  std::thread b_client([&] {
    DirectPolicy direct_b(spec_b);
    Rng rng(50);
    std::uint64_t r = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Vec obs = random_obs(rng);
      const Response response = router.serve("b", r++, obs);
      // Tenant b must be untouched by a's swap: same version, same bits.
      if (response.outcome != Outcome::Ok || response.version != 1 ||
          !bitwise_equal(response.action, direct_b.act(obs))) {
        b_errors.fetch_add(1);
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  store.publish("a", spec_a2);  // hot-swap tenant a under b's live load

  DirectPolicy direct_a2(spec_a2);
  Rng rng(51);
  for (std::uint64_t r = 0; r < 20; ++r) {
    const Vec obs = random_obs(rng);
    const Response response = router.serve("a", r, obs);
    ASSERT_EQ(response.outcome, Outcome::Ok);
    EXPECT_EQ(response.version, 2u);
    EXPECT_TRUE(bitwise_equal(response.action, direct_a2.act(obs)));
  }
  stop.store(true, std::memory_order_relaxed);
  b_client.join();
  EXPECT_EQ(b_errors.load(), 0u);
  router.shutdown();
}

TEST(Router, ShutdownDrainsEveryShardThenRejects) {
  PolicyStore store;
  store.publish("a", make_discrete_spec(101));
  store.publish("b", make_discrete_spec(102));
  RouterConfig config;
  config.shards = 2;
  config.shard.max_batch = 16;
  config.shard.max_delay_us = 10e6;  // 10 s window: nothing self-flushes
  config.shard.gather = false;
  Router router(store, config);

  // Park two clients on every (tenant, shard) queue.
  constexpr std::size_t kPerShard = 2;
  std::vector<Response> responses;
  std::vector<std::thread> clients;
  std::vector<std::pair<std::string, std::uint64_t>> placements;
  for (const std::string tenant : {"a", "b"}) {
    for (std::size_t s = 0; s < config.shards; ++s) {
      std::uint64_t key = 0;
      for (std::uint64_t k = 0; router.shard_for(key) != s; ++k) key = k;
      for (std::size_t i = 0; i < kPerShard; ++i) {
        placements.emplace_back(tenant, key);
      }
    }
  }
  responses.resize(placements.size());
  Rng rng(60);
  std::vector<Vec> observations;
  observations.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    observations.push_back(random_obs(rng));
  }
  for (std::size_t i = 0; i < placements.size(); ++i) {
    clients.emplace_back([&, i] {
      responses[i] = router.serve(placements[i].first, placements[i].second,
                                  observations[i]);
    });
  }
  for (const std::string tenant : {"a", "b"}) {
    for (std::size_t s = 0; s < config.shards; ++s) {
      BatchScheduler* shard = router.shard(tenant, s);
      ASSERT_NE(shard, nullptr);
      wait_for_queue_depth(*shard, kPerShard);
    }
  }

  router.shutdown();  // flushes every shard's window and joins its workers
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < placements.size(); ++i) {
    ASSERT_EQ(responses[i].outcome, Outcome::Ok) << "request " << i;
    DirectPolicy direct(store.current(placements[i].first)->spec);
    EXPECT_TRUE(bitwise_equal(responses[i].action,
                              direct.act(observations[i])));
  }

  // The fleet no longer admits work, on any tenant.
  EXPECT_EQ(router.serve("a", 1, random_obs(rng)).outcome,
            Outcome::RejectedShutdown);
  EXPECT_EQ(router.serve("b", 1, random_obs(rng)).outcome,
            Outcome::RejectedShutdown);
}

TEST(Router, PriorityNamesAreStable) {
  EXPECT_STREQ(priority_name(Priority::Control), "control");
  EXPECT_STREQ(priority_name(Priority::High), "high");
  EXPECT_STREQ(priority_name(Priority::Normal), "normal");
  EXPECT_STREQ(priority_name(Priority::Low), "low");
}

// ---------------------------------------------------------------------------
// Arrival processes (open-loop load generation)

TEST(Arrival, MeanGapMatchesConfiguredRate) {
  Rng rng(70);
  for (const Arrival kind :
       {Arrival::Poisson, Arrival::Bursty, Arrival::HeavyTail}) {
    ArrivalProcess arrivals(kind, /*mean_gap_s=*/0.01);
    double total = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) total += arrivals.next_gap_s(rng);
    // Long-run mean gap within 15% of the configured 10ms (HeavyTail has
    // infinite variance, so the tolerance is generous).
    EXPECT_NEAR(total / kDraws, 0.01, 0.0015) << arrival_name(kind);
  }
}

TEST(Arrival, ParsesCliSpellings) {
  Arrival out = Arrival::Poisson;
  EXPECT_TRUE(parse_arrival("bursty", out));
  EXPECT_EQ(out, Arrival::Bursty);
  EXPECT_TRUE(parse_arrival("heavytail", out));
  EXPECT_EQ(out, Arrival::HeavyTail);
  EXPECT_TRUE(parse_arrival("poisson", out));
  EXPECT_EQ(out, Arrival::Poisson);
  EXPECT_FALSE(parse_arrival("uniform", out));
  EXPECT_EQ(out, Arrival::Poisson);  // untouched on failure
}
