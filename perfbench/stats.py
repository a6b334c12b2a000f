"""Summary arithmetic for latency samples.

Kept apart from the workloads so the tests can check it on fixed numbers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks.

    Matches NumPy's default ("linear") method: position ``(n - 1) * q/100``
    in the sorted sample, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def qps(latencies: Sequence[float]) -> float:
    """Selects per second of select time: count / summed latency (seconds).

    With one closed-loop client the summed latency is the time the client
    spent waiting on selects; time spent on updates, checks or query
    bookkeeping between selects is excluded.
    """
    total = math.fsum(latencies)
    if not latencies or total <= 0.0:
        raise ValueError("qps needs at least one positive latency")
    return len(latencies) / total


def latency_summary(latencies: Sequence[float]) -> dict[str, float]:
    """Median, p90 and p99 in milliseconds from latencies in seconds."""
    return {
        "p50_ms": percentile(latencies, 50.0) * 1000.0,
        "p90_ms": percentile(latencies, 90.0) * 1000.0,
        "p99_ms": percentile(latencies, 99.0) * 1000.0,
        "mean_ms": math.fsum(latencies) / len(latencies) * 1000.0,
    }

