// darl/common/rng.hpp
//
// Deterministic, splittable random number generation.
//
// Every stochastic component in darl (environments, policies, exploratory
// methods, backends) receives an explicit Rng so that a study is exactly
// reproducible from its seed — the reproducibility concern the paper raises
// for distributed learning is handled by *construction* here: parallel
// workers draw from independent child streams obtained via Rng::split().

#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "darl/common/error.hpp"

namespace darl {

/// Seeded pseudo-random generator wrapping std::mt19937_64 with the sampling
/// helpers the rest of darl needs. Copyable (copies continue the same
/// stream independently) and splittable into statistically independent
/// child streams.
class Rng {
 public:
  /// Construct from a 64-bit seed. Two Rngs with the same seed produce the
  /// same sequence on every platform (mt19937_64 is fully specified).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Derive the i-th child stream. Children with different indices, or from
  /// parents with different seeds, are independent for practical purposes
  /// (seeded via SplitMix64 of the parent seed and the index).
  Rng split(std::uint64_t index) const;

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Standard normal draw.
  double normal();

  /// Normal draw with the given mean and standard deviation (stddev >= 0).
  double normal(double mean, double stddev);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Sample an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Fill `out` with standard normal draws.
  void fill_normal(std::vector<double>& out);

  /// The seed this Rng was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// Access the underlying engine (for std::shuffle and friends).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// SplitMix64 mixing function — used for seed derivation; exposed for tests.
std::uint64_t splitmix64(std::uint64_t x);

/// FNV-1a 64-bit hash of a byte string. Stable across platforms (unlike
/// std::hash), so it is safe to persist — used for campaign-cache config
/// digests and for deriving per-configuration seed streams.
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace darl
