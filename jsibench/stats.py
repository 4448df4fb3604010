"""Statistics of the jsi benchmark: medians, quartiles and the highest
percentile a sample supports.

A timing is reported as its median with the sample count. A higher
percentile is reported only when at least ten samples lie beyond it;
percentiles use the nearest-rank definition, so the value reported is
always one that was measured. Failed operations enter latency samples as
infinity: they count as beyond any limit.
"""

import math
import statistics
from fractions import Fraction

# Percentiles tried, highest first, when looking for a reportable tail.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them; a
    single sample is its own quartiles."""
    if not xs:
        raise ValueError("quartiles of no samples")
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def relative_spread(xs):
    """Interquartile range as a share of the median (0 for a zero
    median)."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


def nearest_rank(xs, p):
    """The p-th percentile by nearest rank, and how many samples lie
    strictly after that rank."""
    s = sorted(xs)
    # Exact rational arithmetic: 99.9% of 10000 is rank 9990, not 9991.
    rank = max(1, math.ceil(Fraction(str(p)) * len(s) / 100))
    return s[rank - 1], len(s) - rank


def tail(xs, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond`
    samples beyond it, as (p, value); None when the sample is too small
    for any."""
    for p in sorted(candidates, reverse=True):
        value, beyond = nearest_rank(xs, p)
        if beyond >= min_beyond:
            return p, value
    return None


def summarize(xs):
    """Median, quartiles, sample count and reportable tail of a sample."""
    q1, q2, q3 = quartiles(xs)
    out = {"median": q2, "q1": q1, "q3": q3, "n": len(xs)}
    t = tail(xs)
    if t is not None:
        out["tail_p"], out["tail"] = t
    return out
