#include "darl/rl/algorithm.hpp"

#include <algorithm>

#include "darl/rl/factory.hpp"

#include "darl/common/error.hpp"
#include "darl/rl/ppo.hpp"
#include "darl/rl/impala.hpp"
#include "darl/rl/sac.hpp"

namespace darl::rl {

const char* algo_name(AlgoKind kind) {
  switch (kind) {
    case AlgoKind::PPO: return "PPO";
    case AlgoKind::SAC: return "SAC";
    case AlgoKind::IMPALA: return "IMPALA";
  }
  return "???";
}

std::optional<AlgoKind> algo_from_name(std::string_view name) {
  for (const AlgoKind kind : {AlgoKind::PPO, AlgoKind::SAC, AlgoKind::IMPALA}) {
    if (name == algo_name(kind)) return kind;
  }
  return std::nullopt;
}

RolloutActor::RolloutActor(const PolicyShape& shape, const nn::Mlp& net,
                           Vec tail, env::ActionSpace space)
    : head_(shape.head),
      net_(net),  // copy
      tail_(std::move(tail)),
      space_(std::move(space)) {
  DARL_ASSERT(net_.sizes() == shape.sizes && tail_.size() == shape.tail,
              "actor does not match its policy shape");
}

void RolloutActor::set_params(const Vec& flat) {
  const std::size_t net_n = net_.param_count();
  DARL_CHECK(flat.size() == net_n + tail_.size(),
             "actor snapshot has " << flat.size() << " values, expected "
                                   << net_n + tail_.size());
  const auto tail = flat.begin() + static_cast<std::ptrdiff_t>(net_n);
  net_.set_flat_params(Vec(flat.begin(), tail));
  std::copy(tail, flat.end(), tail_.begin());
}

ActOutput RolloutActor::act(const Vec& obs, Rng& rng) {
  return sample_action(head_, space_, net_.evaluate(obs), tail_, rng);
}

Vec RolloutActor::act_greedy(const Vec& obs) {
  const Vec head = net_.evaluate(obs);
  Vec action(space_.action_dim());
  greedy_action(head_, space_, head.data(), action.data());
  return action;
}

double RolloutActor::inference_cost_mflop() const {
  return net_.flops_per_forward() / 1e6;
}

Algorithm::Algorithm(AlgoKind kind, std::size_t obs_dim,
                     env::ActionSpace action_space,
                     const std::vector<std::size_t>& hidden,
                     double learning_rate, double log_std_init,
                     std::uint64_t seed)
    : shape_(policy_shape(kind, obs_dim, action_space, hidden)),
      obs_dim_(obs_dim),
      action_space_(std::move(action_space)),
      rng_(seed),
      actor_([&] {
        Rng init = rng_.split(1);
        return nn::Mlp(shape_.sizes, shape_.activation, init);
      }()),
      log_std_(shape_.tail, log_std_init),
      log_std_grad_(shape_.tail, 0.0),
      actor_params_(actor_.params()),
      kind_(kind) {
  DARL_CHECK(obs_dim > 0, "obs_dim must be positive");
  if (!log_std_.empty()) {
    actor_params_.push_back(nn::ParamRef{&log_std_, &log_std_grad_, "log_std"});
  }
  actor_opt_ = std::make_unique<nn::Adam>(actor_params_, learning_rate);
}

std::unique_ptr<RolloutActor> Algorithm::make_actor() const {
  return std::make_unique<RolloutActor>(shape_, actor_, log_std_,
                                        action_space_);
}

Vec Algorithm::policy_params() const {
  Vec flat = actor_.get_flat_params();
  flat.insert(flat.end(), log_std_.begin(), log_std_.end());
  return flat;
}

std::size_t Algorithm::params_bytes() const {
  return (actor_.param_count() + log_std_.size()) * sizeof(double);
}

std::size_t Algorithm::transition_bytes() const {
  // obs + next_obs + action + scalars, in doubles.
  return (2 * obs_dim_ + action_space_.action_dim() + 4) * sizeof(double);
}

std::unique_ptr<Algorithm> make_algorithm(const AlgorithmSpec& spec,
                                          std::size_t obs_dim,
                                          const env::ActionSpace& action_space,
                                          std::uint64_t seed) {
  switch (spec.kind) {
    case AlgoKind::PPO:
      return std::make_unique<PpoAlgorithm>(obs_dim, action_space, spec.ppo,
                                            seed);
    case AlgoKind::SAC:
      return std::make_unique<SacAlgorithm>(obs_dim, action_space, spec.sac,
                                            seed);
    case AlgoKind::IMPALA:
      return std::make_unique<ImpalaAlgorithm>(obs_dim, action_space,
                                               spec.impala, seed);
  }
  throw InvalidArgument("unknown AlgoKind");
}

}  // namespace darl::rl
