"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10
TAIL_CAP = 0.95


def p50(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it, capped at the 95th and never below the median.

    The cap keeps the tail of long runs off the last one or two percent of
    samples, which on a shared machine record neighbours' bursts more than
    the program.  With
    fewer than eleven samples no percentile has ten beyond it; the slowest
    sample is returned as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    k = max(min(n - TAIL_BEYOND - 1, math.ceil(TAIL_CAP * n) - 1), n // 2)
    return float(ordered[k]), 100.0 * (k + 1) / n, n
