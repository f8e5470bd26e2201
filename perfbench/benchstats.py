"""Order statistics, the capacity rule and run-to-run spread.

Every simulated latency the benchmark reports is computed here from the
exact per-request samples (``finished_at - issued_at`` on the simulated
clock, or per-op simulated cycles), never from the program's bucketed
histograms, so re-bucketing those histograms cannot move a number.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

#: Percentiles considered by :func:`reportable_percentile`, ascending.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile is reportable only with at least this many samples above it.
MIN_BEYOND = 10


def nearest_rank(n: int, percentile: float) -> int:
    """1-based nearest rank of ``percentile`` in a sample of ``n``."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    return max(1, math.ceil(percentile / 100.0 * n - 1e-9))


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie strictly above the percentile's rank."""
    return n - nearest_rank(n, percentile)


def exact_percentile(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank order statistic of an ascending sample."""
    return float(sorted_values[nearest_rank(len(sorted_values), percentile) - 1])


def reportable_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when not even the median qualifies (fewer than 20 samples).
    """
    best = None
    for percentile in PERCENTILE_LADDER:
        if n >= 1 and samples_beyond(n, percentile) >= MIN_BEYOND:
            best = percentile
    return best


def tail_mean(sorted_values: Sequence[float], percentile: float = 99.0) -> float:
    """Mean of the samples at or above the percentile's order statistic.

    Unlike the order statistic itself, this moves with every sample in the
    tail, so it also varies between seeds on a workload whose per-op costs
    take few distinct values (simulated cycles on the cache simulator).
    """
    rank = nearest_rank(len(sorted_values), percentile)
    tail = sorted_values[rank - 1 :]
    return float(sum(tail) / len(tail))


def summarize(values: Iterable[float]) -> dict:
    """Count, mean, median, p99 and the highest reportable percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0}
    top = reportable_percentile(n)
    return {
        "n": n,
        "mean": sum(ordered) / n,
        "p50": exact_percentile(ordered, 50.0),
        "p99": exact_percentile(ordered, 99.0),
        "tail99": tail_mean(ordered, 99.0),
        "top_percentile": top,
        "top_value": exact_percentile(ordered, top) if top is not None else None,
    }


def meets_limit(p99_ms: float, refused: int, failed: int, limit_ms: float) -> bool:
    """The capacity rule for one phase: p99 within the limit, nothing lost."""
    return p99_ms <= limit_ms and refused == 0 and failed == 0


def capacity(phases: Sequence[dict], limit_ms: float) -> float:
    """Highest offered rate whose phase meets :func:`meets_limit` (0 if none).

    Each phase is a dict with ``rate``, ``p99_ms``, ``refused`` and
    ``failed`` (timed-out ops count as failed).
    """
    passing = [
        phase["rate"]
        for phase in phases
        if meets_limit(phase["p99_ms"], phase["refused"], phase["failed"], limit_ms)
    ]
    return float(max(passing)) if passing else 0.0


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and interquartile range as a share of the median."""
    if len(values) < 2:
        only = float(values[0]) if values else float("nan")
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    return {"median": median, "q1": q1, "q3": q3, "spread": rel}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
