// darl/serve/arrival.hpp
//
// Open-loop arrival processes for load generation (DESIGN.md §14). An
// open-loop generator schedules request arrival times *independently of
// completions* — unlike a closed-loop client, it does not slow down when
// the server falls behind, so queueing collapse is visible instead of
// being absorbed by the load generator. Latency is measured from the
// scheduled arrival, charging any lateness (client-side queueing) to the
// request.
//
// Three processes, each tuned so the long-run mean gap is `mean_gap_s`:
//   Poisson    exponential inter-arrival gaps — the memoryless baseline
//   Bursty     back-to-back volleys of 16 separated by a compensating
//              idle gap (synchronized clients, retry storms)
//   HeavyTail  Pareto(alpha = 1.5) gaps — rare long silences paid for by
//              clumps of near-simultaneous arrivals (self-similar load)
//
// Used by tools/darl_serve.cpp (--open-loop --arrival) and by perfbench's
// open-loop serve phase (Poisson).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "darl/common/elementary.hpp"
#include "darl/common/rng.hpp"

namespace darl::serve {

enum class Arrival { Poisson, Bursty, HeavyTail };

inline const char* arrival_name(Arrival arrival) {
  switch (arrival) {
    case Arrival::Poisson:
      return "poisson";
    case Arrival::Bursty:
      return "bursty";
    case Arrival::HeavyTail:
      return "heavytail";
  }
  return "unknown";
}

/// Parse a CLI spelling; returns false (leaving `out` untouched) on an
/// unknown name.
inline bool parse_arrival(const std::string& name, Arrival& out) {
  if (name == "poisson") out = Arrival::Poisson;
  else if (name == "bursty") out = Arrival::Bursty;
  else if (name == "heavytail") out = Arrival::HeavyTail;
  else return false;
  return true;
}

/// Stateful gap generator for one traffic source. Draws come from the
/// caller's Rng so a generator thread's schedule is reproducible from its
/// seed. Not thread-safe; make one per generator.
class ArrivalProcess {
 public:
  ArrivalProcess(Arrival kind, double mean_gap_s)
      : kind_(kind), mean_gap_s_(mean_gap_s) {}

  /// Seconds until the next arrival after the current one.
  double next_gap_s(Rng& rng) {
    switch (kind_) {
      case Arrival::Bursty: {
        if (burst_left_ == 0) {
          burst_left_ = kBurst;
          return mean_gap_s_ * static_cast<double>(kBurst);
        }
        --burst_left_;
        return 0.0;
      }
      case Arrival::HeavyTail: {
        constexpr double kAlpha = 1.5;
        const double xm = mean_gap_s_ * (kAlpha - 1.0) / kAlpha;
        const double u = std::max(1e-12, 1.0 - rng.uniform());
        return xm / math::pow(u, 1.0 / kAlpha);
      }
      case Arrival::Poisson:
        break;
    }
    const double u = std::max(1e-12, 1.0 - rng.uniform());
    return -math::log(u) * mean_gap_s_;
  }

 private:
  static constexpr std::size_t kBurst = 16;
  Arrival kind_;
  double mean_gap_s_;
  std::size_t burst_left_ = 0;
};

}  // namespace darl::serve
