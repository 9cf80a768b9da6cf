// darl/env/gridworld.hpp
//
// A small deterministic grid-world with goal and pit cells. Its exact
// optimal policy and value function are computable by hand, which makes it
// the reference environment for algorithm-correctness tests (does PPO's
// greedy policy converge to the shortest safe path?).

#pragma once

#include <string>

#include "darl/env/env.hpp"

namespace darl::env {

/// Layout of a rectangular grid world. '.'=free, 'S'=start, 'G'=goal
/// (+1 reward, terminal), 'X'=pit (-1 reward, terminal), '#'=wall
/// (blocks movement). Rows must be equal length; exactly one 'S'.
struct GridWorldLayout {
  std::vector<std::string> rows;

  /// 4x4 layout with one pit between start and goal.
  static GridWorldLayout small_maze();
};

/// Deterministic grid world. Observation: one-hot cell encoding (dim =
/// width*height). Actions: Discrete(4) = up/right/down/left; moving into a
/// wall or off the grid is a no-op. Reward: -0.01 per step, +1 at the
/// goal, -1 in a pit (both terminal). Combine with TimeLimit for safety.
class GridWorldEnv final : public EnvBase {
 public:
  explicit GridWorldEnv(GridWorldLayout layout = GridWorldLayout::small_maze());

  const BoxSpace& observation_space() const override { return obs_space_; }
  const ActionSpace& action_space() const override { return act_space_; }
  const std::string& name() const override { return name_; }
  double take_compute_cost() override;

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }

  /// Current agent cell (x, y) — for tests.
  std::pair<std::size_t, std::size_t> position() const { return {x_, y_}; }

 protected:
  Vec do_reset(Rng& rng) override;
  StepResult do_step(Rng& rng, const Vec& action) override;

 private:
  char cell(std::size_t x, std::size_t y) const { return layout_.rows[y][x]; }
  Vec observe() const;

  GridWorldLayout layout_;
  std::size_t width_ = 0, height_ = 0;
  std::size_t start_x_ = 0, start_y_ = 0;
  std::size_t x_ = 0, y_ = 0;
  BoxSpace obs_space_;
  ActionSpace act_space_;
  std::string name_ = "GridWorld";
  double pending_cost_ = 0.0;
};

/// Factory for use with backends and rollout workers.
EnvFactory make_gridworld_factory(GridWorldLayout layout =
                                      GridWorldLayout::small_maze(),
                                  std::size_t time_limit = 100);

}  // namespace darl::env
