"""Derived numbers of the darl benchmark.

Pure functions over the harness's raw report (see harness.cpp), kept apart
from run.py so test_metrics.py can check them on synthetic inputs.
"""

import math
import statistics

# Percentiles a timing tail may be reported at, highest first. The tail is
# the highest one with at least MIN_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(samples, p):
    """Linear-interpolation percentile of raw samples (as obs::percentile)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples above
    it, or None when n is too small for any (fewer than 40 samples)."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 100.0 * MIN_BEYOND:  # exact for these p
            return p
    return None


def tail(samples):
    """(percentile, value) of a timing's tail. Too few samples for any
    ladder percentile falls back to the maximum, reported as p100."""
    p = tail_percentile(len(samples))
    if p is None:
        return 100.0, max(samples)
    return p, percentile(samples, p)


def lane_idle_frac(width, wall_s, trial_walls):
    """Share of a campaign's lane-seconds (width lanes for wall_s) in which
    no trial ran. Independent of how the study schedules its trials."""
    lane_seconds = width * wall_s
    if lane_seconds <= 0:
        raise ValueError("campaign without lane time")
    return max(0.0, lane_seconds - sum(trial_walls)) / lane_seconds


def fail_frac(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def per_iter_ms(run, *phases):
    """Milliseconds per training iteration spent in the named phases of one
    TrainResult-shaped record ({"collect_s": .., "iterations": ..})."""
    return 1e3 * sum(run[p + "_s"] for p in phases) / run["iterations"]


def remote_overhead_ms(dist_runs, inproc_runs):
    """What the remote path adds per iteration: the distributed runs' median
    collect + sync time minus the in-process RllibBackend's on the same
    request. Learn is excluded; both paths run the same update."""
    remote = statistics.median(per_iter_ms(r, "collect", "sync") for r in dist_runs)
    local = statistics.median(per_iter_ms(r, "collect", "sync") for r in inproc_runs)
    return remote - local


def overhead_frac(traced_walls, untraced_walls):
    """Tracing overhead: median traced job time over median untraced, minus 1."""
    return statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
