#include "darl/common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "darl/common/elementary.hpp"

namespace darl {

namespace {

/// Marsaglia's polar method, drawn exactly as libstdc++'s
/// normal_distribution draws it (two uniforms per try, the second
/// coordinate first), but over darl's log, so the normals do not depend
/// on the host's libm. Returns one normal and stores its pair in `*pair`.
double polar_normal(Rng& rng, double* pair) {
  double x, y, r2;
  do {
    x = 2.0 * rng.uniform() - 1.0;
    y = 2.0 * rng.uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * math::log(r2) / r2);
  if (pair != nullptr) *pair = x * mult;
  return y * mult;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

Rng Rng::split(std::uint64_t index) const {
  // Mix the parent seed with the child index through two SplitMix64 rounds
  // so that (seed, index) pairs map to well-separated child seeds.
  return Rng(splitmix64(splitmix64(seed_) ^ (0xD1B54A32D192ED03ull * (index + 1))));
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  DARL_CHECK(lo <= hi, "uniform bounds inverted: [" << lo << ", " << hi << ")");
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::normal() { return polar_normal(*this, nullptr); }

double Rng::normal(double mean, double stddev) {
  DARL_CHECK(stddev >= 0.0, "negative stddev " << stddev);
  if (stddev == 0.0) return mean;
  return polar_normal(*this, nullptr) * stddev + mean;
}

std::int64_t Rng::randint(std::int64_t lo, std::int64_t hi) {
  DARL_CHECK(lo <= hi, "randint bounds inverted: [" << lo << ", " << hi << "]");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool Rng::bernoulli(double p) {
  DARL_CHECK(p >= 0.0 && p <= 1.0, "bernoulli p out of [0,1]: " << p);
  return std::bernoulli_distribution(p)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  DARL_CHECK(n > 0, "index() over empty range");
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  DARL_CHECK(!weights.empty(), "categorical() over empty weights");
  double total = 0.0;
  for (double w : weights) {
    DARL_CHECK(w >= 0.0 && std::isfinite(w), "negative or non-finite weight " << w);
    total += w;
  }
  DARL_CHECK(total > 0.0, "categorical() needs a positive weight");
  double r = uniform(0.0, total);
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // floating-point edge: r landed on total
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::shuffle(idx.begin(), idx.end(), engine_);
  return idx;
}

void Rng::fill_normal(std::vector<double>& out) {
  // Both normals of each polar pair, as one normal_distribution would.
  for (std::size_t i = 0; i < out.size(); i += 2) {
    double pair;
    out[i] = polar_normal(*this, &pair);
    if (i + 1 < out.size()) out[i + 1] = pair;
  }
}

}  // namespace darl
