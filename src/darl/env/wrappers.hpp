// darl/env/wrappers.hpp
//
// Composable environment wrappers (gym idiom): time limits and episode
// statistics recording.

#pragma once

#include <memory>
#include <vector>

#include "darl/env/env.hpp"

namespace darl::env {

/// Base wrapper forwarding every call to the wrapped environment.
class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(std::unique_ptr<Env> inner);

  void seed(std::uint64_t s) override { inner_->seed(s); }
  Vec reset() override { return inner_->reset(); }
  StepResult step(const Vec& action) override { return inner_->step(action); }
  const BoxSpace& observation_space() const override {
    return inner_->observation_space();
  }
  const ActionSpace& action_space() const override {
    return inner_->action_space();
  }
  const std::string& name() const override { return inner_->name(); }
  double take_compute_cost() override { return inner_->take_compute_cost(); }
  std::optional<double> episode_score() const override {
    return inner_->episode_score();
  }

 protected:
  Env& inner() { return *inner_; }
  const Env& inner() const { return *inner_; }

 private:
  std::unique_ptr<Env> inner_;
};

/// Truncates episodes after `max_steps` steps (sets StepResult::truncated).
class TimeLimit final : public EnvWrapper {
 public:
  TimeLimit(std::unique_ptr<Env> inner, std::size_t max_steps);

  Vec reset() override;
  StepResult step(const Vec& action) override;

  std::size_t max_steps() const { return max_steps_; }

 private:
  std::size_t max_steps_;
  std::size_t steps_ = 0;
};

/// Summary of one finished episode. `score` is the domain score (see
/// Env::episode_score); it falls back to total_reward when the environment
/// does not define one.
struct EpisodeRecord {
  double total_reward = 0.0;
  double score = 0.0;
  std::size_t length = 0;
};

/// Records per-episode return and length; the metric-collection stage reads
/// them to compute the study's Reward metric.
class EpisodeMonitor final : public EnvWrapper {
 public:
  explicit EpisodeMonitor(std::unique_ptr<Env> inner);

  Vec reset() override;
  StepResult step(const Vec& action) override;

  /// All episodes finished since construction.
  const std::vector<EpisodeRecord>& episodes() const { return episodes_; }

  /// Mean total reward over the last `n` finished episodes (all if fewer).
  /// Returns 0 when no episode has finished.
  double mean_recent_reward(std::size_t n) const;

  /// Mean domain score over the last `n` finished episodes (all if fewer).
  double mean_recent_score(std::size_t n) const;

 private:
  std::vector<EpisodeRecord> episodes_;
  double current_reward_ = 0.0;
  std::size_t current_length_ = 0;
};

}  // namespace darl::env
