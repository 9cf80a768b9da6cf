// darl/obs/percentile.hpp
//
// Shared percentile math for telemetry consumers. The sample-percentile
// function used to live in darl/common/stats (and before that was
// re-derived ad hoc by the serve CLI and bench); it now has one home here
// so darl_serve's stats table, perfbench, darl_top and the report
// renderers all agree on the interpolation rule. histogram_percentile adds
// the bucketed estimate needed when only a fixed-bucket histogram (the
// exporter's native shape) is available.
//
// Header-only so tools and benches can use it without linking darl_obs.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "darl/common/error.hpp"

namespace darl::obs {

/// Linear-interpolation percentile over raw samples, p in [0, 100].
/// Requires non-empty input. Matches NumPy's default ("linear") rule:
/// rank = p/100 * (n-1), interpolated between the floor/ceil order stats.
inline double percentile(std::vector<double> xs, double p) {
  DARL_CHECK(!xs.empty(), "percentile of empty vector");
  DARL_CHECK(p >= 0.0 && p <= 100.0, "percentile out of [0,100]: " << p);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// Percentile estimate from a fixed-bucket histogram: `bounds` are the
/// upper bucket bounds (strictly increasing) and `counts` the per-bucket
/// tallies with one trailing overflow bucket (counts.size() ==
/// bounds.size() + 1), exactly the obs::Histogram layout. The estimate
/// interpolates linearly within the bucket containing the target rank
/// (Prometheus histogram_quantile semantics); ranks landing in the
/// overflow bucket clamp to the largest finite bound. Returns 0 when the
/// histogram is empty.
inline double histogram_percentile(const std::vector<double>& bounds,
                                   const std::vector<std::uint64_t>& counts,
                                   double p) {
  DARL_CHECK(!bounds.empty(), "histogram_percentile needs at least one bound");
  DARL_CHECK(counts.size() == bounds.size() + 1,
             "histogram_percentile: counts must be bounds.size() + 1 (got "
                 << counts.size() << " for " << bounds.size() << " bounds)");
  DARL_CHECK(p >= 0.0 && p <= 100.0, "percentile out of [0,100]: " << p);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t previous = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i == counts.size() - 1) return bounds.back();  // overflow bucket
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    if (counts[i] == 0) return hi;
    const double frac =
        (rank - static_cast<double>(previous)) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
  }
  return bounds.back();
}

}  // namespace darl::obs
