"""The benchmark's arithmetic: medians, quartiles, tail percentiles and
span self times.

Kept free of numpy and of ``repro`` so the numbers a run reports can be
checked by hand (``test_stats.py`` does, on hand-made inputs).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

__all__ = [
    "median",
    "quartiles",
    "percentile",
    "supported_percentile",
    "summarize",
    "self_times",
    "verdict",
]

# A percentile is only reported when at least this many samples lie
# beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them — the
    driver's own definition; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return float(ordered[rank - 1])


def supported_percentile(n_samples: int, wanted: float = 99.0) -> float:
    """The highest of ``wanted``, 95, 90, 75 that leaves at least
    :data:`MIN_BEYOND` samples beyond it; 50 when the sample supports no
    tail at all."""
    for p in (wanted, 95.0, 90.0, 75.0):
        if p <= wanted and n_samples - math.ceil(n_samples * p / 100.0) >= MIN_BEYOND:
            return p
    return 50.0


def summarize(values: Sequence[float]) -> dict:
    """A sample as the benchmark reports it: its median as the value
    (unless the caller has a better one), its quartiles and its count."""
    q1, q3 = quartiles(values)
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values)}


def self_times(spans: Iterable[tuple]) -> dict[str, list[float]]:
    """Per-name self times of ``(name, start, end, span_id, parent_id,
    request)`` spans: a span's duration minus the durations of the spans
    that name it as parent, floored at zero.

    Children here are *re-measured* calls of an inner public function
    (the harness cannot put a stopwatch inside the program), so they are
    subtracted by duration rather than by interval overlap.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for _name, start, end, _sid, parent, _req in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, list[float]] = {}
    for name, start, end, sid, _parent, _req in spans:
        own = (end - start) - child_time.get(sid, 0.0)
        out.setdefault(name, []).append(max(own, 0.0))
    return out


def verdict(
    base: dict, new: dict, better: str, bound: float
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric) row.

    ``base`` and ``new`` are :func:`summarize` dicts.  *worse* means the
    new value is worse than the base value by more than ``bound`` of the
    base; *unresolved* means either side's own inter-quartile spread is
    wider than the bound, so the comparison cannot tell.
    """
    for side in (base, new):
        mid = side["value"]
        if mid and (side["q3"] - side["q1"]) / abs(mid) > bound:
            return "unresolved"
    a, b = base["value"], new["value"]
    if a == 0:
        return "ok" if b == 0 else "worse"
    change = (b - a) / abs(a)
    if better == "higher":
        change = -change
    return "worse" if change > bound else "ok"
