#include "darl/rl/evaluate.hpp"

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"

namespace darl::rl {

EvalResult evaluate_policy(RolloutActor& actor, env::Env& environment,
                           std::size_t episodes, Rng& rng, bool stochastic,
                           std::size_t max_steps_per_episode) {
  DARL_CHECK(episodes > 0, "evaluate_policy needs at least one episode");
  EvalResult out;
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    Vec obs = environment.reset();
    double total = 0.0;
    std::size_t steps = 0;
    while (steps < max_steps_per_episode) {
      Vec action = stochastic ? actor.act(obs, rng).action
                              : actor.act_greedy(obs);
      ++out.inferences;
      const env::StepResult r = environment.step(action);
      total += r.reward;
      ++steps;
      obs = r.observation;
      if (r.done()) break;
    }
    out.mean_total_reward += total;
    out.mean_score += environment.episode_score().value_or(total);
    out.mean_length += static_cast<double>(steps);
    ++out.episodes;
  }
  out.env_cost_units = environment.take_compute_cost();
  const double n = static_cast<double>(out.episodes);
  out.mean_score /= n;
  out.mean_total_reward /= n;
  out.mean_length /= n;
  return out;
}

}  // namespace darl::rl
