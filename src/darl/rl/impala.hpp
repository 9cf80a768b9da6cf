// darl/rl/impala.hpp
//
// IMPALA-style actor-critic with V-trace off-policy correction (Espeholt
// et al. 2018) — the "highly scalable agent" the paper's §II-A cites as a
// canonical distributed-RL architecture. Unlike PPO, the learner performs a
// single pass per batch and corrects for behaviour/target policy lag with
// truncated importance sampling, which is what makes the architecture
// robust to the parameter staleness of asynchronous multi-node deployments
// (demonstrated in bench_extension_impala).

#pragma once

#include <vector>

#include "darl/rl/actor_critic.hpp"

namespace darl::rl {

/// IMPALA/V-trace hyperparameters.
struct ImpalaConfig {
  std::vector<std::size_t> hidden = {64, 64};
  double learning_rate = 3e-4;
  double gamma = 0.99;
  double rho_clip = 1.0;     ///< importance-weight clip for the TD term
  double c_clip = 1.0;       ///< importance-weight clip for the trace term
  double entropy_coef = 5e-3;
  double value_coef = 0.5;
  double max_grad_norm = 0.5;
  double log_std_init = -0.5;  ///< continuous head initial log-std
};

/// V-trace targets computed over one worker stream (pure function,
/// unit-tested against closed forms).
struct VtraceResult {
  std::vector<double> vs;          ///< corrected value targets
  std::vector<double> pg_adv;      ///< rho_t (r + gamma vs_{t+1} - V(s_t))
  std::vector<double> rho;         ///< clipped importance weights
};

/// `log_ratio[t]` = log pi_target(a_t|s_t) - log mu(a_t|s_t);
/// `values[t]` = V(s_t); `bootstrap[t]` = V(s_{t+1}) (only read at stream
/// ends/truncations, like GAE's convention). Traces reset at done().
VtraceResult compute_vtrace(const std::vector<Transition>& stream,
                            const std::vector<double>& log_ratio,
                            const std::vector<double>& values,
                            const std::vector<double>& bootstrap, double gamma,
                            double rho_clip, double c_clip);

/// IMPALA learner. See ActorCritic for the shared networks (the same
/// categorical or Gaussian policy head as PpoAlgorithm).
class ImpalaAlgorithm final : public ActorCritic {
 public:
  ImpalaAlgorithm(std::size_t obs_dim, env::ActionSpace action_space,
                  ImpalaConfig config, std::uint64_t seed);

  TrainStats train(const std::vector<WorkerBatch>& batches) override;

 private:
  ImpalaConfig config_;

  // Reusable output-gradient staging; capacity grows to the longest
  // worker stream, then train() stops allocating in the network hot path.
  Matrix st_dhead_, st_dv_;
};

}  // namespace darl::rl
