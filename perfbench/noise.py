"""Summaries of repeated timings: medians, quartiles and honest tails."""

from __future__ import annotations

import math
import statistics

#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def band(values: list[float]) -> dict:
    """Median, first and third quartile and count of ``values``."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def qualifies(pct: float, n: int) -> bool:
    """Whether ``n`` samples leave :data:`MIN_BEYOND` beyond ``pct``."""
    return n * (1.0 - pct / 100.0) >= MIN_BEYOND


def tail(values: list[float]) -> dict:
    """The median and the highest qualifying percentile of ``values``.

    A percentile without :data:`MIN_BEYOND` samples beyond it is a guess
    about the tail, not a measurement of it, so it reads 0 (with
    ``pct`` 0) rather than being reported.
    """
    n = len(values)
    p50 = percentile(values, 50.0) if qualifies(50.0, n) else 0.0
    for pct in TAIL_PERCENTILES:
        if qualifies(pct, n):
            return {"p50": p50, "pct": pct, "value": percentile(values, pct), "n": n}
    return {"p50": p50, "pct": 0.0, "value": 0.0, "n": n}
