// Tests for the gym-style environment substrate: spaces, lifecycle rules,
// wrappers, vectorization and the classic-control environments.

#include <gtest/gtest.h>

#include <cmath>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/cartpole.hpp"
#include "darl/env/gridworld.hpp"
#include "darl/env/mountain_car.hpp"
#include "darl/env/pendulum.hpp"
#include "darl/env/wrappers.hpp"

namespace darl::env {
namespace {

TEST(BoxSpace, ContainsSampleClip) {
  BoxSpace box(Vec{-1.0, 0.0}, Vec{1.0, 2.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(box.contains(box.sample(rng)));
  EXPECT_FALSE(box.contains({-2.0, 1.0}));
  EXPECT_FALSE(box.contains({0.0}));
  const Vec c = box.clip({-5.0, 5.0});
  EXPECT_DOUBLE_EQ(c[0], -1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_THROW(BoxSpace(Vec{1.0}, Vec{0.0}), InvalidArgument);
  EXPECT_THROW(BoxSpace(Vec{}, Vec{}), InvalidArgument);
}

TEST(DiscreteSpace, EncodeDecodeSample) {
  DiscreteSpace d(3);
  EXPECT_EQ(d.decode(d.encode(2)), 2u);
  EXPECT_EQ(d.decode({0.4}), 0u);
  EXPECT_EQ(d.decode({1.6}), 2u);
  EXPECT_EQ(d.decode({99.0}), 2u);  // clamped
  EXPECT_TRUE(d.contains({1.0}));
  EXPECT_FALSE(d.contains({3.0}));
  EXPECT_FALSE(d.contains({}));
  Rng rng(2);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(d.contains(d.sample(rng)));
  EXPECT_THROW(DiscreteSpace(0), InvalidArgument);
  EXPECT_THROW(d.encode(3), InvalidArgument);
}

TEST(ActionSpace, VariantBehaviour) {
  ActionSpace disc{DiscreteSpace(4)};
  EXPECT_TRUE(disc.is_discrete());
  EXPECT_EQ(disc.action_dim(), 1u);
  EXPECT_THROW(disc.box(), InvalidArgument);
  EXPECT_EQ(disc.describe(), "Discrete(4)");

  ActionSpace cont{BoxSpace(2, -1.0, 1.0)};
  EXPECT_TRUE(cont.is_box());
  EXPECT_EQ(cont.action_dim(), 2u);
  EXPECT_THROW(cont.discrete(), InvalidArgument);
  EXPECT_EQ(cont.describe(), "Box(dim=2)");
}

TEST(EnvBase, StepBeforeResetThrows) {
  CartPoleEnv env;
  EXPECT_THROW(env.step({0.0}), InvalidState);
  env.reset();
  EXPECT_NO_THROW(env.step({0.0}));
}

TEST(EnvBase, StepAfterDoneThrowsUntilReset) {
  CartPoleEnv env;
  env.seed(7);
  env.reset();
  // Push right forever: the pole falls within the 200-step horizon.
  StepResult r;
  for (int i = 0; i < 500; ++i) {
    r = env.step({1.0});
    if (r.done()) break;
  }
  ASSERT_TRUE(r.done());
  EXPECT_THROW(env.step({1.0}), InvalidState);
  env.reset();
  EXPECT_NO_THROW(env.step({1.0}));
}

TEST(EnvBase, WrongActionSizeThrows) {
  PendulumEnv env;
  env.reset();
  EXPECT_THROW(env.step({0.1, 0.2}), InvalidArgument);
}

TEST(EnvBase, SeedingReproducesEpisodes) {
  CartPoleEnv a, b;
  a.seed(99);
  b.seed(99);
  const Vec oa = a.reset();
  const Vec ob = b.reset();
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) EXPECT_DOUBLE_EQ(oa[i], ob[i]);
}

TEST(CartPole, TerminatesOnAngleOrPosition) {
  CartPoleEnv env;
  env.seed(3);
  env.reset();
  bool terminated = false;
  for (int i = 0; i < 1000 && !terminated; ++i) {
    const StepResult r = env.step({1.0});
    terminated = r.terminated;
    EXPECT_DOUBLE_EQ(r.reward, 1.0);
  }
  EXPECT_TRUE(terminated);
}

TEST(CartPole, ComputeCostDrains) {
  CartPoleEnv env;
  env.seed(4);
  env.reset();
  env.step({0.0});
  env.step({0.0});
  EXPECT_DOUBLE_EQ(env.take_compute_cost(), 2.0);
  EXPECT_DOUBLE_EQ(env.take_compute_cost(), 0.0);
}

TEST(Pendulum, RewardIsNonPositiveAndBounded) {
  PendulumEnv env;
  env.seed(5);
  env.reset();
  for (int i = 0; i < 100; ++i) {
    const StepResult r = env.step({0.5});
    EXPECT_LE(r.reward, 0.0);
    EXPECT_GE(r.reward, -17.0);  // -(pi^2 + 0.1*64 + 0.001*4) lower bound
    EXPECT_FALSE(r.terminated);
    // Observation is (cos, sin, thetadot): unit circle.
    EXPECT_NEAR(r.observation[0] * r.observation[0] +
                    r.observation[1] * r.observation[1],
                1.0, 1e-9);
  }
}

TEST(TimeLimit, TruncatesAtLimit) {
  auto env = std::make_unique<TimeLimit>(std::make_unique<PendulumEnv>(), 5);
  env->seed(1);
  env->reset();
  StepResult r;
  for (int i = 0; i < 5; ++i) r = env->step({0.0});
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.terminated);
  // Counter resets with the episode.
  env->reset();
  r = env->step({0.0});
  EXPECT_FALSE(r.truncated);
}

TEST(EpisodeMonitor, RecordsRewardScoreAndLength) {
  auto env = std::make_unique<EpisodeMonitor>(
      std::make_unique<TimeLimit>(std::make_unique<PendulumEnv>(), 3));
  env->seed(2);
  env->reset();
  double total = 0.0;
  for (int i = 0; i < 3; ++i) total += env->step({0.0}).reward;
  ASSERT_EQ(env->episodes().size(), 1u);
  EXPECT_DOUBLE_EQ(env->episodes()[0].total_reward, total);
  EXPECT_DOUBLE_EQ(env->episodes()[0].score, total);  // no domain score
  EXPECT_EQ(env->episodes()[0].length, 3u);
  EXPECT_DOUBLE_EQ(env->mean_recent_reward(10), total);
  EXPECT_DOUBLE_EQ(env->mean_recent_score(10), total);
}

TEST(MountainCar, NeedsMomentumToReachTheGoal) {
  env::MountainCarEnv env;
  env.seed(6);
  env.reset();
  // Pushing right forever does NOT reach the goal (under-powered car).
  bool reached = false;
  for (int i = 0; i < 300; ++i) {
    if (env.step({1.0}).terminated) {
      reached = true;
      break;
    }
  }
  EXPECT_FALSE(reached);

  // A bang-bang policy (push in the direction of the velocity) does.
  env.seed(6);
  Vec obs = env.reset();
  reached = false;
  for (int i = 0; i < 999 && !reached; ++i) {
    const double force = obs[1] >= 0.0 ? 1.0 : -1.0;
    const env::StepResult r = env.step({force});
    obs = r.observation;
    if (r.terminated) {
      reached = true;
      EXPECT_GT(r.reward, 90.0);  // success bonus
    }
  }
  EXPECT_TRUE(reached);
}

TEST(MountainCar, StateStaysInBounds) {
  env::MountainCarEnv env;
  env.seed(7);
  Rng rng(7);
  Vec obs = env.reset();
  for (int i = 0; i < 500; ++i) {
    const env::StepResult r = env.step({rng.uniform(-1.0, 1.0)});
    EXPECT_TRUE(env.observation_space().contains(r.observation));
    if (r.terminated) break;
  }
}

TEST(GridWorld, LayoutValidation) {
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"..", "..."}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"..", ".."}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"SS"}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"SZ"}}}), InvalidArgument);
  EXPECT_NO_THROW((GridWorldEnv{GridWorldLayout::small_maze()}));
}

TEST(GridWorld, ShortestPathToGoalGivesBestReturn) {
  // small_maze: S..G in the top row — 3 steps right reaches the goal.
  GridWorldEnv env;
  env.seed(1);
  env.reset();
  double total = 0.0;
  env::StepResult r;
  for (int i = 0; i < 3; ++i) {
    r = env.step({1.0});  // right
    total += r.reward;
  }
  EXPECT_TRUE(r.terminated);
  EXPECT_NEAR(total, 1.0 - 2 * 0.01, 1e-12);
}

TEST(GridWorld, PitTerminatesWithPenalty) {
  // From S: right x3 would hit G; go down-right path to the pit at (3,1).
  GridWorldEnv env;
  env.seed(1);
  env.reset();
  env.step({1.0});  // right  -> (1,0)
  env.step({1.0});  // right  -> (2,0)
  env.step({2.0});  // down   -> (2,1)
  const env::StepResult r = env.step({1.0});  // right -> pit (3,1)
  EXPECT_TRUE(r.terminated);
  EXPECT_DOUBLE_EQ(r.reward, -1.0);
}

TEST(GridWorld, WallsAndEdgesBlockMovement) {
  GridWorldEnv env;
  env.seed(1);
  env.reset();
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 0}));
  env.step({0.0});  // up: off-grid, no-op
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 0}));
  env.step({3.0});  // left: off-grid, no-op
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 0}));
  env.step({2.0});  // down -> (0,1)
  env.step({1.0});  // right: wall '#' at (1,1), no-op
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(GridWorld, ObservationIsOneHot) {
  GridWorldEnv env;
  env.seed(1);
  const Vec obs = env.reset();
  ASSERT_EQ(obs.size(), 16u);
  double sum = 0.0;
  for (double v : obs) sum += v;
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_DOUBLE_EQ(obs[0], 1.0);  // start at (0,0)
}

}  // namespace
}  // namespace darl::env
