"""Summaries of timing samples: median, tail percentile, sample count.

A timing is reported as its median and the highest percentile that
still has at least ten samples beyond it, with the sample count.  For a
metric where higher is better (a rate) the tail is the low end, so the
mirrored percentile is taken (p1 instead of p99).
"""

from __future__ import annotations

import statistics

import numpy as np

TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (999, 990, 950, 900, 750, 500)   # tenths of a percent


def tail_level(n: int):
    """Highest candidate percentile with at least ten of n samples
    beyond it, or None when n is too small for any."""
    for tenths in TAIL_CANDIDATES:
        if n * (1000 - tenths) // 1000 >= TAIL_MIN_BEYOND:
            return tenths / 10.0
    return None


def summarize(values, better: str = "lower") -> dict:
    """{"median", "tail", "tail_label", "n"} for a list of samples.

    tail is None (label "-") when fewer samples exist than any tail
    percentile needs.
    """
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        raise ValueError("summary of no samples")
    level = tail_level(n)
    if level is None:
        tail, label = None, "-"
    elif better == "lower":
        tail, label = float(np.percentile(values, level)), f"p{level:g}"
    else:
        low = 100.0 - level
        tail, label = float(np.percentile(values, low)), f"p{low:g}"
    return {"median": statistics.median(values), "tail": tail,
            "tail_label": label, "n": n}


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; a run that attempted
    nothing counts as wholly failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def iqr_share(values) -> float:
    """Quartile distance over the median, as statistics.quantiles gives
    the quartiles (the steadiness measure for repeated runs)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
