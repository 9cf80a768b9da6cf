#include "darl/rl/impala.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/obs/trace.hpp"

namespace darl::rl {

VtraceResult compute_vtrace(const std::vector<Transition>& stream,
                            const std::vector<double>& log_ratio,
                            const std::vector<double>& values,
                            const std::vector<double>& bootstrap, double gamma,
                            double rho_clip, double c_clip) {
  const std::size_t n = stream.size();
  DARL_CHECK(log_ratio.size() == n && values.size() == n && bootstrap.size() == n,
             "compute_vtrace size mismatch");
  DARL_CHECK(gamma >= 0.0 && gamma <= 1.0, "gamma out of [0,1]");
  DARL_CHECK(rho_clip > 0.0 && c_clip > 0.0, "clips must be positive");

  VtraceResult out;
  out.vs.resize(n);
  out.pg_adv.resize(n);
  out.rho.resize(n);

  // Backward recursion: vs_t - V(t) = delta_t + gamma c_t (vs_{t+1} -
  // V(t+1)), with the accumulator reset at episode boundaries.
  double next_excess = 0.0;   // vs_{t+1} - V(s_{t+1})
  for (std::size_t i = n; i-- > 0;) {
    const Transition& tr = stream[i];
    const double ratio = math::exp(log_ratio[i]);
    const double rho = std::min(rho_clip, ratio);
    const double c = std::min(c_clip, ratio);
    out.rho[i] = rho;

    double v_next;
    double excess_next;
    if (tr.done()) {
      v_next = tr.terminated ? 0.0 : bootstrap[i];
      excess_next = 0.0;  // no trace across episodes
    } else {
      v_next = (i + 1 < n) ? values[i + 1] : bootstrap[i];
      excess_next = (i + 1 < n) ? next_excess : 0.0;
    }

    const double delta = rho * (tr.reward + gamma * v_next - values[i]);
    const double excess = delta + gamma * c * excess_next;
    out.vs[i] = values[i] + excess;
    // Policy-gradient advantage uses vs_{t+1}, i.e. v_next + excess_next.
    out.pg_adv[i] =
        rho * (tr.reward + gamma * (v_next + excess_next) - values[i]);

    next_excess = excess;
  }
  return out;
}

ImpalaAlgorithm::ImpalaAlgorithm(std::size_t obs_dim,
                                 env::ActionSpace action_space,
                                 ImpalaConfig config, std::uint64_t seed)
    : ActorCritic(AlgoKind::IMPALA, obs_dim, std::move(action_space),
                  config.hidden, config.learning_rate, config.log_std_init,
                  seed),
      config_(std::move(config)) {}

TrainStats ImpalaAlgorithm::train(const std::vector<WorkerBatch>& batches) {
  TrainStats stats;

  // Single pass over every stream: compute V-trace targets with the
  // current networks, then accumulate one policy and one value gradient.
  DARL_SPAN("rl.impala.vtrace");
  zero_grad();

  std::size_t total = 0;
  for (const auto& b : batches) total += b.transitions.size();
  if (total == 0) return stats;
  const double scale = 1.0 / static_cast<double>(total);

  double policy_loss = 0.0, value_loss = 0.0, entropy_sum = 0.0;
  double value_evals = 0.0;

  for (const auto& batch : batches) {
    const auto& stream = batch.transitions;
    if (stream.empty()) continue;

    const std::size_t n = stream.size();
    std::vector<double> values(n);
    std::vector<double> boots(n);
    std::vector<double> log_ratio(n);
    std::vector<double> logp_new(n);
    value_evals += critic_pass(stream, values, boots);

    // One actor and one critic forward/backward batch per stream; the
    // actor's forward heads also give the current log-probs for V-trace.
    // Gradients keep accumulating across streams exactly as the
    // per-sample calls did (gemm seeds each element from the existing
    // gradient value).
    const Matrix& heads = actor_.forward_batch(stream_obs_);
    for (std::size_t i = 0; i < n; ++i) {
      logp_new[i] = log_prob(heads.row(i), stream[i].action);
      log_ratio[i] = logp_new[i] - stream[i].log_prob;
    }
    const VtraceResult vt =
        compute_vtrace(stream, log_ratio, values, boots, config_.gamma,
                       config_.rho_clip, config_.c_clip);

    const Matrix& vals = critic_.forward_batch(stream_obs_);
    st_dhead_.reshape(n, actor_.output_dim());
    st_dv_.reshape(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      // Policy gradient: -pg_adv * grad logp - entropy bonus.
      entropy_sum += policy_grad(heads.row(i), stream[i].action, -vt.pg_adv[i],
                                 config_.entropy_coef, scale, st_dhead_.row(i));
      policy_loss += -vt.pg_adv[i] * logp_new[i];

      // Value regression toward vs.
      const double verr = vals(i, 0) - vt.vs[i];
      value_loss += 0.5 * verr * verr;
      st_dv_.row(i)[0] = scale * config_.value_coef * verr;
    }
    actor_.backward_batch(st_dhead_, nn::Grad::Params);
    critic_.backward_batch(st_dv_, nn::Grad::Params);
  }
  clip_and_step(config_.max_grad_norm);

  stats.samples = total;
  stats.gradient_steps = 1;
  stats.policy_loss = policy_loss / static_cast<double>(total);
  stats.value_loss = value_loss / static_cast<double>(total);
  stats.entropy = entropy_sum / static_cast<double>(total);
  const double af = actor_.flops_per_forward();
  const double cf = critic_.flops_per_forward();
  // Per sample: one actor eval + one actor fwd+bwd + one critic eval for
  // targets + one critic fwd+bwd. The actor eval is still charged now that
  // the log-probs come from the forward pass: the modelled cost feeds the
  // simulated clock, and with it every campaign CSV.
  stats.train_cost_mflop =
      (value_evals * cf + static_cast<double>(total) * (4.0 * af + 3.0 * cf)) /
      1e6;
  return stats;
}

}  // namespace darl::rl
