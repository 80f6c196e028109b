"""Arithmetic of the benchmark: percentiles, the tail rule, host speed, span self time, failure share.

Pure Python without numpy, so the orchestrator and the unit tests never load
the numerical stack or depend on the program under test.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence

# Percentiles tried for the tail, lowest first.  A percentile is usable when at
# least TAIL_MIN_BEYOND samples lie strictly above its nearest-rank position.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

# Reference units on each side of a timed item that set its host-speed factor.
HOST_WINDOW = 2


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the k-th smallest value, k = ceil(p/100 * n)."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(len(values), p) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def tail(values: Sequence[float]) -> dict:
    """Highest ladder percentile that has at least ten samples beyond it.

    Uses the nearest-rank definition: the value at percentile p is the k-th
    smallest sample with k = ceil(p/100 * n), and n - k samples lie beyond it.
    With too few samples for even the median (n < 20) no percentile qualifies;
    the maximum is returned with ``percentile`` 100, ``beyond`` 0 and
    ``too_few`` set, so a reader sees the value is not a tail estimate.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no values")
    ordered = sorted(values)
    best = None
    for p in TAIL_LADDER:
        k = _rank(n, p)
        if n - k >= TAIL_MIN_BEYOND:
            best = {"percentile": p, "value": ordered[k - 1], "beyond": n - k,
                    "samples": n, "too_few": False}
    if best is None:
        best = {"percentile": 100.0, "value": ordered[-1], "beyond": 0,
                "samples": n, "too_few": True}
    return best


def host_scale(unit_seconds: Sequence[float], nominal_s: float) -> float:
    """Factor that turns a time measured on this host now into one at nominal speed.

    ``unit_seconds`` are timings of one fixed reference unit taken alongside
    the measured work; the factor is ``nominal_s`` over their median, so a host
    running at half speed (units twice as long) halves the times it measured.
    """
    if not unit_seconds:
        raise ValueError("no reference timings")
    return nominal_s / statistics.median(unit_seconds)


def local_scales(n_items: int, unit_seconds: Sequence[float], unit_after: Sequence[int],
                 nominal_s: float, k: int = HOST_WINDOW) -> list[float]:
    """``host_scale`` for each of ``n_items`` timed one after another, from the units nearest it.

    Reference unit ``j`` ran right after item ``unit_after[j]`` (non-decreasing).
    Item ``i`` is scaled by the ``k`` units that ran last before it and the
    ``k`` that ran first after it (fewer at the ends), because the host's speed
    changes within seconds.
    """
    if len(unit_seconds) != len(unit_after):
        raise ValueError("every reference timing needs the item it followed")
    out = []
    for i in range(n_items):
        first_after = bisect.bisect_left(unit_after, i)
        near = unit_seconds[max(0, first_after - k): first_after + k]
        out.append(host_scale(near, nominal_s))
    return out


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Self time of every span: its duration minus its children's durations.

    ``spans`` holds tuples whose first five fields are
    (name, parent index or -1, trajectory, start, end); a child is any span
    whose parent index points at the span.  Spans come from one call stack,
    so the children of a span run one after another inside it.
    """
    out = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[1] >= 0:
            out[span[1]] -= span[4] - span[3]
    return out
