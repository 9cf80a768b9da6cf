#include "darl/env/wrappers.hpp"

#include <algorithm>

#include "darl/common/error.hpp"

namespace darl::env {

EnvWrapper::EnvWrapper(std::unique_ptr<Env> inner) : inner_(std::move(inner)) {
  DARL_CHECK(inner_ != nullptr, "wrapping a null environment");
}

TimeLimit::TimeLimit(std::unique_ptr<Env> inner, std::size_t max_steps)
    : EnvWrapper(std::move(inner)), max_steps_(max_steps) {
  DARL_CHECK(max_steps > 0, "TimeLimit needs max_steps > 0");
}

Vec TimeLimit::reset() {
  steps_ = 0;
  return EnvWrapper::reset();
}

StepResult TimeLimit::step(const Vec& action) {
  StepResult r = EnvWrapper::step(action);
  ++steps_;
  if (!r.terminated && steps_ >= max_steps_) r.truncated = true;
  return r;
}

EpisodeMonitor::EpisodeMonitor(std::unique_ptr<Env> inner)
    : EnvWrapper(std::move(inner)) {}

Vec EpisodeMonitor::reset() {
  current_reward_ = 0.0;
  current_length_ = 0;
  return EnvWrapper::reset();
}

StepResult EpisodeMonitor::step(const Vec& action) {
  StepResult r = EnvWrapper::step(action);
  current_reward_ += r.reward;
  ++current_length_;
  if (r.done()) {
    const double score = inner().episode_score().value_or(current_reward_);
    episodes_.push_back(EpisodeRecord{current_reward_, score, current_length_});
    current_reward_ = 0.0;
    current_length_ = 0;
  }
  return r;
}

double EpisodeMonitor::mean_recent_reward(std::size_t n) const {
  if (episodes_.empty() || n == 0) return 0.0;
  const std::size_t take = std::min(n, episodes_.size());
  double s = 0.0;
  for (std::size_t i = episodes_.size() - take; i < episodes_.size(); ++i)
    s += episodes_[i].total_reward;
  return s / static_cast<double>(take);
}

double EpisodeMonitor::mean_recent_score(std::size_t n) const {
  if (episodes_.empty() || n == 0) return 0.0;
  const std::size_t take = std::min(n, episodes_.size());
  double s = 0.0;
  for (std::size_t i = episodes_.size() - take; i < episodes_.size(); ++i)
    s += episodes_[i].score;
  return s / static_cast<double>(take);
}

}  // namespace darl::env
