"""Statistics shared by the benchmark runner and the comparison script.

Standard library only.  The rules follow the repository benchmark's
method: a timing is reported as its median and the highest percentile
with at least ten samples beyond it; two result sets are compared metric
by metric against the bound BENCHMARK.json fixes for that metric.
"""

import math
import statistics

MIN_BEYOND = 10  # samples a reported tail percentile needs beyond it
SEGMENT_OPS = 1000  # operations per segment of a closed loop
GAIN_WIN_SHARE = 0.9  # share of pairs the change must win to claim a gain


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _rank(count, pct):
    """1-based nearest rank of the pct-th percentile of `count` samples."""
    return min(count, max(1, math.ceil(count * pct / 100.0)))


def samples_beyond(count, pct):
    """Samples ranked above the pct-th percentile of `count` samples."""
    return count - _rank(count, pct)


def tail_percentile(count, wanted=99.0, choices=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest percentile no higher than `wanted` that has at least
    MIN_BEYOND samples beyond it, or None when even the median has not."""
    for pct in choices:
        if pct <= wanted and samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def segments(values, size=SEGMENT_OPS):
    """Consecutive whole segments of `size` values; a shorter tail is
    dropped."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


def segmented_rate(done_s, size=SEGMENT_OPS):
    """Median over consecutive segments of operations per second, from
    each operation's completion time (seconds since the loop started)."""
    rates = []
    previous = 0.0
    for segment in segments(done_s, size):
        rates.append(len(segment) / (segment[-1] - previous))
        previous = segment[-1]
    return median(rates)


def verdict(parent, change, better, bound, pairs=None):
    """Compare one metric of two result sets.

    `parent` and `change` are the per-run values of every run on each
    side; `pairs` lists (parent value, change value) of runs matched by
    seed, and defaults to pairing the two lists by position.  `better` is
    "higher" or "lower"; `bound` is the share of the parent's median by
    which the metric may get worse before it counts as a regression.
    Returns one of:

      better      the change wins at least 9/10 of the pairs, ties counting
                  for neither, and the medians differ by more than the
                  parent's quartile distance;
      worse       the change's median is worse by more than the bound, and
                  either the spread of both sides is within the bound or
                  every change run reads worse than every parent run;
      unresolved  the spread of either side is wider than the bound, unless
                  every change run reads better than every parent run;
      same        none of the above: no worse than the bound allows.
    """
    if better not in ("higher", "lower"):
        raise ValueError("better must be 'higher' or 'lower'")
    sign = 1.0 if better == "higher" else -1.0
    parent_median, change_median = median(parent), median(change)
    q1, _, q3 = quartiles(parent)
    gain = sign * (change_median - parent_median)  # > 0: change is better

    if pairs is None:
        pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= GAIN_WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "better"

    change_scores = [sign * v for v in change]  # higher score = better
    parent_scores = [sign * v for v in parent]
    all_better = min(change_scores) > max(parent_scores)
    all_worse = max(change_scores) < min(parent_scores)
    worse_than_bound = -gain > bound * abs(parent_median)
    spread = max(relative_spread(parent), relative_spread(change))
    if worse_than_bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "same"
