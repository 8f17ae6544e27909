"""Small, dependency-free statistics and naming rules for the benchmark.

Kept apart from the workloads so the unit tests can exercise them
without booting a simulated machine.
"""

from __future__ import annotations

import math
import re
import statistics

#: Metric and workload names: a letter or digit, then up to 63 letters,
#: digits, ``_``, ``.`` or ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Units: up to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` or ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A tail percentile is trustworthy only with this many samples above it.
MIN_SAMPLES_BEYOND = 10


def valid_name(name: str) -> bool:
    """True when ``name`` follows the metric/workload name grammar."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    """True when ``unit`` follows the unit grammar."""
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def nearest_rank(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of ``samples``.

    Returns ``(value, beyond)``: the sample of rank ``ceil(q * n)`` in
    ascending order and how many samples rank above it.  Raises
    ``ValueError`` on an empty sample or a ``q`` outside (0, 1].
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"percentile fraction must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail_is_trustworthy(beyond: int) -> bool:
    """The >= 10-samples-beyond rule for reporting a tail percentile."""
    return beyond >= MIN_SAMPLES_BEYOND


def highest_trustworthy_percentile(n: int) -> float | None:
    """The largest whole-percent ``q`` whose nearest rank keeps >= 10 above.

    ``None`` when even the median would have fewer than ten samples
    beyond it.
    """
    for percent in range(99, 49, -1):
        rank = max(1, math.ceil(percent / 100 * n - 1e-9))
        if n - rank >= MIN_SAMPLES_BEYOND:
            return percent / 100
    return None


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses :func:`statistics.quantiles` with ``n=4`` (the exclusive
    method), the same definition the benchmark's steadiness rule uses.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return math.inf
    return (q3 - q1) / abs(median)
