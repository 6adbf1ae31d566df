"""Order statistics and metric-name rules shared by the benchmark."""

from __future__ import annotations

import math
import re
import statistics

#: Names: a letter or digit, then at most 63 letters, digits, ``_ . -``.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: Units: at most 16 letters, digits, ``_ / % . -``.
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
#: ... and is at most this.  Beyond p95, the thousands of ~1 ms
#: cache-hit rounds of ``rerun`` measure host preemption: their p99 read
#: 3.6 to 14.8 ms over passes of identical work on a 2-vCPU VM.
TAIL_CAP = 95


def valid_name(name: str) -> bool:
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile, at most TAIL_CAP, with ``beyond`` samples
    past it.

    With ``count`` samples the nearest-rank ``q``-th percentile sits at
    rank ``ceil(q/100 * count)``, leaving ``count - rank`` samples beyond.
    Returns 50 (the median) when even that leaves too few.
    """
    for q in range(TAIL_CAP, 49, -1):
        if count - math.ceil(q / 100.0 * count) >= beyond:
            return q
    return 50


def tail(values) -> tuple[float, int, int]:
    """``(value, percentile, sample count)`` of the tail rule."""
    q = tail_percentile(len(values))
    return percentile(values, q), q, len(values)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
