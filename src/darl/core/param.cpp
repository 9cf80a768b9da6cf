#include "darl/core/param.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "darl/common/elementary.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"

namespace darl::core {

const char* param_category_name(ParamCategory c) {
  switch (c) {
    case ParamCategory::Algorithm: return "algorithm";
    case ParamCategory::System: return "system";
    case ParamCategory::Environment: return "environment";
  }
  return "?";
}

std::string param_value_to_string(const ParamValue& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  std::ostringstream oss;
  oss << std::get<double>(v);
  return oss.str();
}

bool param_value_equal(const ParamValue& a, const ParamValue& b) {
  return a == b;
}

ParamDomain ParamDomain::categorical(std::string name,
                                     std::vector<std::string> choices,
                                     ParamCategory category) {
  DARL_CHECK(!choices.empty(), "categorical domain '" << name << "' is empty");
  std::set<std::string> uniq(choices.begin(), choices.end());
  DARL_CHECK(uniq.size() == choices.size(),
             "categorical domain '" << name << "' has duplicate choices");
  ParamDomain d;
  d.name_ = std::move(name);
  d.category_ = category;
  d.domain_ = Categorical{std::move(choices)};
  return d;
}

ParamDomain ParamDomain::integer_range(std::string name, std::int64_t lo,
                                       std::int64_t hi, std::int64_t step,
                                       ParamCategory category) {
  DARL_CHECK(lo <= hi, "integer domain '" << name << "' bounds inverted");
  DARL_CHECK(step > 0, "integer domain '" << name << "' needs step > 0");
  ParamDomain d;
  d.name_ = std::move(name);
  d.category_ = category;
  d.domain_ = IntRange{lo, hi, step};
  return d;
}

ParamDomain ParamDomain::integer_set(std::string name,
                                     std::vector<std::int64_t> choices,
                                     ParamCategory category) {
  DARL_CHECK(!choices.empty(), "integer set '" << name << "' is empty");
  std::set<std::int64_t> uniq(choices.begin(), choices.end());
  DARL_CHECK(uniq.size() == choices.size(),
             "integer set '" << name << "' has duplicate choices");
  ParamDomain d;
  d.name_ = std::move(name);
  d.category_ = category;
  d.domain_ = IntSet{std::move(choices)};
  return d;
}

ParamDomain ParamDomain::real_range(std::string name, double lo, double hi,
                                    bool log_scale, ParamCategory category) {
  DARL_CHECK(lo < hi, "real domain '" << name << "' needs lo < hi");
  DARL_CHECK(!log_scale || lo > 0.0,
             "log-scale real domain '" << name << "' needs lo > 0");
  ParamDomain d;
  d.name_ = std::move(name);
  d.category_ = category;
  d.domain_ = RealRange{lo, hi, log_scale};
  return d;
}

bool ParamDomain::is_categorical() const {
  return std::holds_alternative<Categorical>(domain_);
}
bool ParamDomain::is_integer() const {
  return std::holds_alternative<IntRange>(domain_) ||
         std::holds_alternative<IntSet>(domain_);
}
bool ParamDomain::is_real() const {
  return std::holds_alternative<RealRange>(domain_);
}

std::optional<std::size_t> ParamDomain::cardinality() const {
  if (const auto* c = std::get_if<Categorical>(&domain_)) return c->choices.size();
  if (const auto* r = std::get_if<IntRange>(&domain_)) {
    return static_cast<std::size_t>((r->hi - r->lo) / r->step) + 1;
  }
  if (const auto* s = std::get_if<IntSet>(&domain_)) return s->choices.size();
  return std::nullopt;
}

ParamValue ParamDomain::grid_value(std::size_t i,
                                   std::size_t real_grid_points) const {
  if (const auto* c = std::get_if<Categorical>(&domain_)) {
    DARL_CHECK(i < c->choices.size(), "grid index out of range for '" << name_ << "'");
    return c->choices[i];
  }
  if (const auto* r = std::get_if<IntRange>(&domain_)) {
    const auto card = *cardinality();
    DARL_CHECK(i < card, "grid index out of range for '" << name_ << "'");
    return r->lo + static_cast<std::int64_t>(i) * r->step;
  }
  if (const auto* s = std::get_if<IntSet>(&domain_)) {
    DARL_CHECK(i < s->choices.size(), "grid index out of range for '" << name_ << "'");
    return s->choices[i];
  }
  const auto& rr = std::get<RealRange>(domain_);
  DARL_CHECK(real_grid_points >= 2, "real grid needs at least 2 points");
  DARL_CHECK(i < real_grid_points, "grid index out of range for '" << name_ << "'");
  const double frac =
      static_cast<double>(i) / static_cast<double>(real_grid_points - 1);
  double v;
  if (rr.log_scale) {
    v = math::exp(math::log(rr.lo) + frac * (math::log(rr.hi) - math::log(rr.lo)));
  } else {
    v = rr.lo + frac * (rr.hi - rr.lo);
  }
  // Guard against round-off pushing endpoints outside the domain.
  return std::clamp(v, rr.lo, rr.hi);
}

ParamValue ParamDomain::sample(Rng& rng) const {
  if (const auto* c = std::get_if<Categorical>(&domain_)) {
    return c->choices[rng.index(c->choices.size())];
  }
  if (const auto* r = std::get_if<IntRange>(&domain_)) {
    const auto card = static_cast<std::int64_t>(*cardinality());
    return r->lo + rng.randint(0, card - 1) * r->step;
  }
  if (const auto* s = std::get_if<IntSet>(&domain_)) {
    return s->choices[rng.index(s->choices.size())];
  }
  const auto& rr = std::get<RealRange>(domain_);
  if (rr.log_scale) {
    return std::clamp(math::exp(rng.uniform(math::log(rr.lo), math::log(rr.hi))),
                      rr.lo, rr.hi);
  }
  return rng.uniform(rr.lo, rr.hi);
}

std::pair<double, double> ParamDomain::real_bounds() const {
  const auto* rr = std::get_if<RealRange>(&domain_);
  DARL_CHECK(rr != nullptr, "parameter '" << name_ << "' is not real-valued");
  return {rr->lo, rr->hi};
}

bool ParamDomain::real_log_scale() const {
  const auto* rr = std::get_if<RealRange>(&domain_);
  DARL_CHECK(rr != nullptr, "parameter '" << name_ << "' is not real-valued");
  return rr->log_scale;
}

bool ParamDomain::contains(const ParamValue& v) const {
  if (const auto* c = std::get_if<Categorical>(&domain_)) {
    const auto* s = std::get_if<std::string>(&v);
    return s != nullptr &&
           std::find(c->choices.begin(), c->choices.end(), *s) != c->choices.end();
  }
  if (const auto* r = std::get_if<IntRange>(&domain_)) {
    const auto* i = std::get_if<std::int64_t>(&v);
    return i != nullptr && *i >= r->lo && *i <= r->hi &&
           (*i - r->lo) % r->step == 0;
  }
  if (const auto* s = std::get_if<IntSet>(&domain_)) {
    const auto* i = std::get_if<std::int64_t>(&v);
    return i != nullptr && std::find(s->choices.begin(), s->choices.end(),
                                     *i) != s->choices.end();
  }
  const auto& rr = std::get<RealRange>(domain_);
  const auto* d = std::get_if<double>(&v);
  return d != nullptr && *d >= rr.lo && *d <= rr.hi;
}

void LearningConfiguration::set(const std::string& name, ParamValue value) {
  values_[name] = std::move(value);
}

bool LearningConfiguration::has(const std::string& name) const {
  return values_.count(name) != 0;
}

const ParamValue& LearningConfiguration::get(const std::string& name) const {
  const auto it = values_.find(name);
  DARL_CHECK(it != values_.end(), "configuration has no parameter '" << name << "'");
  return it->second;
}

const std::string& LearningConfiguration::get_categorical(
    const std::string& name) const {
  const auto* s = std::get_if<std::string>(&get(name));
  DARL_CHECK(s != nullptr, "parameter '" << name << "' is not categorical");
  return *s;
}

std::int64_t LearningConfiguration::get_integer(const std::string& name) const {
  const auto* i = std::get_if<std::int64_t>(&get(name));
  DARL_CHECK(i != nullptr, "parameter '" << name << "' is not an integer");
  return *i;
}

double LearningConfiguration::get_real(const std::string& name) const {
  const ParamValue& v = get(name);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  throw InvalidArgument("parameter '" + name + "' is not numeric");
}

std::string LearningConfiguration::describe() const {
  std::ostringstream oss;
  bool first = true;
  for (const auto& [k, v] : values_) {
    if (!first) oss << ", ";
    first = false;
    oss << k << '=' << param_value_to_string(v);
  }
  return oss.str();
}

bool LearningConfiguration::operator==(const LearningConfiguration& other) const {
  return values_ == other.values_;
}

void ParamSpace::add(ParamDomain domain) {
  for (const auto& d : domains_) {
    DARL_CHECK(d.name() != domain.name(),
               "duplicate parameter '" << domain.name() << "'");
  }
  domains_.push_back(std::move(domain));
}

const ParamDomain& ParamSpace::domain(const std::string& name) const {
  for (const auto& d : domains_) {
    if (d.name() == name) return d;
  }
  throw InvalidArgument("space has no parameter '" + name + "'");
}

std::size_t ParamSpace::grid_size(std::size_t real_grid_points) const {
  DARL_CHECK(!domains_.empty(), "grid over an empty space");
  std::size_t n = 1;
  for (const auto& d : domains_) {
    n *= d.cardinality().value_or(real_grid_points);
  }
  return n;
}

LearningConfiguration ParamSpace::grid_point(std::size_t index,
                                             std::size_t real_grid_points) const {
  DARL_CHECK(index < grid_size(real_grid_points), "grid index out of range");
  LearningConfiguration config;
  std::size_t rem = index;
  for (const auto& d : domains_) {
    const std::size_t card = d.cardinality().value_or(real_grid_points);
    config.set(d.name(), d.grid_value(rem % card, real_grid_points));
    rem /= card;
  }
  return config;
}

void ParamSpace::add_constraint(
    std::function<bool(const LearningConfiguration&)> predicate,
    std::string description) {
  DARL_CHECK(predicate != nullptr, "null constraint predicate");
  constraints_.push_back(Constraint{std::move(predicate), std::move(description)});
}

bool ParamSpace::satisfies_constraints(const LearningConfiguration& config) const {
  for (const auto& c : constraints_) {
    if (!c.predicate(config)) return false;
  }
  return true;
}

LearningConfiguration ParamSpace::sample(Rng& rng) const {
  DARL_CHECK(!domains_.empty(), "sampling from an empty space");
  constexpr int kMaxAttempts = 1000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    LearningConfiguration config;
    for (const auto& d : domains_) config.set(d.name(), d.sample(rng));
    if (satisfies_constraints(config)) return config;
  }
  throw Error("no feasible configuration found in " +
              std::to_string(kMaxAttempts) + " samples — constraints may be "
              "unsatisfiable");
}

void ParamSpace::validate(const LearningConfiguration& config) const {
  for (const auto& d : domains_) {
    DARL_CHECK(config.has(d.name()),
               "configuration is missing parameter '" << d.name() << "'");
    DARL_CHECK(d.contains(config.get(d.name())),
               "value " << param_value_to_string(config.get(d.name()))
                        << " is outside the domain of '" << d.name() << "'");
  }
  for (const auto& c : constraints_) {
    DARL_CHECK(c.predicate(config),
               "configuration violates constraint: " << c.description);
  }
}

}  // namespace darl::core
