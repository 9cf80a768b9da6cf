#include "darl/core/tpe.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"

namespace darl::core {
namespace {

constexpr double kLogSqrt2Pi = 0.9189385332046727;  // log(sqrt(2*pi))

/// Work in log space for log-scale real domains.
struct RealTransform {
  double lo = 0.0, hi = 1.0;
  bool log_scale = false;

  double fwd(double x) const { return log_scale ? math::log(x) : x; }
  double inv(double t) const { return log_scale ? math::exp(t) : t; }
};

RealTransform transform_of(const ParamDomain& dom) {
  RealTransform tr;
  const auto [lo, hi] = dom.real_bounds();
  tr.log_scale = dom.real_log_scale();
  tr.lo = tr.log_scale ? math::log(lo) : lo;
  tr.hi = tr.log_scale ? math::log(hi) : hi;
  return tr;
}

}  // namespace

TpeSearch::TpeSearch(ParamSpace space, MetricDef objective, TpeOptions options,
                     std::uint64_t seed)
    : space_(std::move(space)),
      objective_(std::move(objective)),
      options_(options),
      rng_(seed) {
  DARL_CHECK(space_.size() > 0, "TPE over an empty space");
  DARL_CHECK(options_.n_trials > 0, "TPE needs a positive trial budget");
  DARL_CHECK(options_.n_startup >= 2, "TPE needs >= 2 startup trials");
  DARL_CHECK(options_.gamma > 0.0 && options_.gamma < 1.0,
             "TPE gamma out of (0,1)");
  DARL_CHECK(options_.n_candidates > 0, "TPE needs candidates");
}

void TpeSearch::split(std::vector<const Observation*>& good,
                      std::vector<const Observation*>& rest) const {
  std::vector<const Observation*> sorted;
  sorted.reserve(history_.size());
  for (const auto& o : history_) sorted.push_back(&o);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Observation* a, const Observation* b) {
                     return a->score > b->score;
                   });
  const std::size_t n_good = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(options_.gamma * static_cast<double>(sorted.size()))),
      1, sorted.size() - 1);
  good.assign(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n_good));
  rest.assign(sorted.begin() + static_cast<std::ptrdiff_t>(n_good), sorted.end());
}

double TpeSearch::dim_log_density(
    const ParamDomain& dom, const ParamValue& v,
    const std::vector<const Observation*>& group) const {
  const std::size_t n = group.size();
  if (dom.cardinality().has_value()) {
    // Categorical / integer: smoothed empirical frequencies.
    const std::size_t k = *dom.cardinality();
    double count = 0.0;
    for (const Observation* o : group) {
      if (param_value_equal(o->config.get(dom.name()), v)) count += 1.0;
    }
    const double p = (count + options_.categorical_prior) /
                     (static_cast<double>(n) +
                      options_.categorical_prior * static_cast<double>(k));
    return math::log(p);
  }

  // Real: Parzen mixture of Gaussians plus a uniform prior component.
  const RealTransform tr = transform_of(dom);
  const double span = tr.hi - tr.lo;
  const double bw =
      span * std::max(options_.min_bandwidth_fraction,
                      1.0 / std::sqrt(static_cast<double>(n) + 1.0));
  const double x = tr.fwd(std::get<double>(v));

  double density = 1.0 / span;  // the uniform component
  for (const Observation* o : group) {
    const double xi = tr.fwd(std::get<double>(o->config.get(dom.name())));
    const double z = (x - xi) / bw;
    density += math::exp(-0.5 * z * z - kLogSqrt2Pi) / bw;
  }
  density /= static_cast<double>(n + 1);
  return math::log(std::max(density, 1e-300));
}

ParamValue TpeSearch::dim_sample(const ParamDomain& dom,
                                 const std::vector<const Observation*>& group) {
  const std::size_t n = group.size();
  if (dom.cardinality().has_value()) {
    const std::size_t k = *dom.cardinality();
    std::vector<double> weights(k, options_.categorical_prior);
    for (const Observation* o : group) {
      const ParamValue& ov = o->config.get(dom.name());
      for (std::size_t i = 0; i < k; ++i) {
        if (param_value_equal(dom.grid_value(i, 2), ov)) {
          weights[i] += 1.0;
          break;
        }
      }
    }
    return dom.grid_value(rng_.categorical(weights), 2);
  }

  const RealTransform tr = transform_of(dom);
  const double span = tr.hi - tr.lo;
  const double bw =
      span * std::max(options_.min_bandwidth_fraction,
                      1.0 / std::sqrt(static_cast<double>(n) + 1.0));
  // With probability 1/(n+1) draw from the uniform prior component.
  double t;
  if (n == 0 || rng_.uniform() < 1.0 / static_cast<double>(n + 1)) {
    t = rng_.uniform(tr.lo, tr.hi);
  } else {
    const Observation* o = group[rng_.index(n)];
    const double xi = tr.fwd(std::get<double>(o->config.get(dom.name())));
    t = std::clamp(rng_.normal(xi, bw), tr.lo, tr.hi);
  }
  // Clamp against round-off at the domain edges (exp(log(hi)) can exceed
  // hi by one ulp).
  const auto [lo, hi] = dom.real_bounds();
  return std::clamp(tr.inv(t), lo, hi);
}

double TpeSearch::log_density(const LearningConfiguration& config,
                              const std::vector<const Observation*>& group) const {
  double lp = 0.0;
  for (const auto& dom : space_.domains()) {
    lp += dim_log_density(dom, config.get(dom.name()), group);
  }
  return lp;
}

LearningConfiguration TpeSearch::sample_from_model(
    const std::vector<const Observation*>& good) {
  // Rejection-sample against the space's feasibility constraints; fall
  // back to a uniform feasible draw if the model keeps proposing
  // infeasible combinations.
  for (int attempt = 0; attempt < 32; ++attempt) {
    LearningConfiguration config;
    for (const auto& dom : space_.domains()) {
      config.set(dom.name(), dim_sample(dom, good));
    }
    if (space_.satisfies_constraints(config)) return config;
  }
  return space_.sample(rng_);
}

std::optional<Proposal> TpeSearch::ask() {
  if (asked_ >= options_.n_trials) return std::nullopt;

  LearningConfiguration config;
  if (history_.size() < options_.n_startup) {
    config = space_.sample(rng_);
  } else {
    std::vector<const Observation*> good, rest;
    split(good, rest);
    double best_ei = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < options_.n_candidates; ++c) {
      LearningConfiguration cand = sample_from_model(good);
      const double ei = log_density(cand, good) - log_density(cand, rest);
      if (ei > best_ei) {
        best_ei = ei;
        config = std::move(cand);
      }
    }
  }

  Proposal p;
  p.trial_id = asked_;
  p.config = config;
  pending_.emplace(asked_, std::move(config));
  ++asked_;
  return p;
}

void TpeSearch::tell(std::size_t trial_id, const MetricValues& metrics) {
  const auto it = pending_.find(trial_id);
  DARL_CHECK(it != pending_.end(), "tell() for unknown TPE trial " << trial_id);
  const auto mit = metrics.find(objective_.name);
  DARL_CHECK(mit != metrics.end(),
             "trial did not report objective '" << objective_.name << "'");
  Observation o;
  o.config = std::move(it->second);
  o.score = objective_.sense == Sense::Maximize ? mit->second : -mit->second;
  history_.push_back(std::move(o));
  pending_.erase(it);
}

void TpeSearch::tell_failure(std::size_t trial_id) {
  // Drop the outstanding proposal without feeding the model: a failed
  // trial yields no objective value, but the ask() budget stays spent.
  const auto it = pending_.find(trial_id);
  DARL_CHECK(it != pending_.end(),
             "tell_failure() for unknown TPE trial " << trial_id);
  pending_.erase(it);
}

}  // namespace darl::core
