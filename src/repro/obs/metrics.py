"""Metrics: counts each component keeps, exported by one registry.

Each event is counted once, where it happens, by the component that owns
it: the engine its ``io.*`` column counts and its bitmap cache's
``cache.*`` traffic, :class:`~repro.exec.QueryExecutor` its per-query
latencies (``exec.*``, ``resilience.*``), the daemon its ``serve.*`` and
:class:`~repro.adaptive.ViewMaintainer` its ``adaptive.*``.  Each such
source has a ``metrics()`` method, and one :class:`MetricsRegistry`
that the source is attached to reads it each time the registry exports,
so serving a request makes no registry call.  A benchmark run (or the
``repro metrics`` CLI) dumps one JSON document covering every stage the
paper's figures break down.

:class:`Histogram` is the one latency type; its owner preallocates it.
The registry's exports are deterministic: names are sorted and histogram
summaries are computed from the retained samples, so two identical runs
serialize identically.
"""

from __future__ import annotations

import json
import threading

__all__ = ["Histogram", "MetricsRegistry"]


class Histogram:
    """Sampled distribution with percentile summaries.

    Retains up to ``max_samples`` observations (beyond that, new samples
    deterministically overwrite old ones round-robin, keeping summaries
    representative of the recent window while ``count``/``sum`` stay
    exact).  Percentiles use the nearest-rank method over the sorted
    retained samples.  Thread-safe: the executor's histograms are
    observed from every thread that serves a query.
    """

    kind = "histogram"

    def __init__(self, max_samples: int = 8192):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._next_slot = 0
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                self._samples[self._next_slot] = value
                self._next_slot = (self._next_slot + 1) % self.max_samples

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the retained samples (p in [0, 100])."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._samples:
                return float("nan")
            ordered = sorted(self._samples)
        rank = max(1, -(-len(ordered) * p // 100)) if p else 1  # ceil
        return ordered[int(rank) - 1]

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding this one's observations and ``other``'s:
        counts, sums and extremes add exactly, and both sets of retained
        samples are kept."""
        merged = Histogram(self.max_samples + other.max_samples)
        for part in (self, other):
            with part._lock:
                merged._samples += part._samples
                merged._count += part._count
                merged._sum += part._sum
                merged._min = min(merged._min, part._min)
                merged._max = max(merged._max, part._max)
        return merged

    def to_dict(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
            ordered = sorted(self._samples)
        if not count:
            return {"type": self.kind, "count": 0}

        def rank(p: float) -> float:
            r = max(1, -(-len(ordered) * p // 100)) if p else 1
            return ordered[int(r) - 1]

        return {
            "type": self.kind,
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": lo,
            "max": hi,
            "p50": rank(50),
            "p90": rank(90),
            "p99": rank(99),
        }


class MetricsRegistry:
    """Exports what its attached sources count.

    A source is any object with a ``metrics()`` method returning
    ``{name: (type, value)}``: ``"counter"`` or ``"gauge"`` with a number,
    or ``"histogram"`` with a :class:`Histogram`.  The registry keeps no
    count of its own; it reads every source at each export.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: dict = {}  # attached sources, used as an ordered set

    def attach(self, source) -> None:
        """Export ``source.metrics()`` at each export; attaching a source
        again changes nothing."""
        with self._lock:
            self._sources[source] = None

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic JSON-ready dump: ``{name: {type, ...}}`` sorted.
        Attached sources are read now; a name several report is summed,
        or merged for a histogram."""
        with self._lock:
            sources = list(self._sources)
        merged: dict[str, tuple] = {}
        for source in sources:
            for name, (kind, value) in source.metrics().items():
                prior = merged.get(name)
                if prior is not None:
                    value = prior[1].merge(value) if kind == "histogram" else prior[1] + value
                merged[name] = (kind, value)
        return {
            name: value.to_dict() if kind == "histogram" else {"type": kind, "value": value}
            for name, (kind, value) in sorted(merged.items())
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """One aligned text line per metric, sorted by name."""
        dump = self.to_dict()
        if not dump:
            return "(no metrics recorded)"
        width = max(len(name) for name in dump)
        lines = []
        for name, payload in dump.items():
            kind = payload["type"]
            if kind == "histogram":
                if payload["count"] == 0:
                    detail = "count=0"
                else:
                    detail = (
                        f"count={payload['count']} mean={payload['mean']:.6g} "
                        f"p50={payload['p50']:.6g} p90={payload['p90']:.6g} "
                        f"p99={payload['p99']:.6g} max={payload['max']:.6g}"
                    )
            else:
                value = payload["value"]
                detail = f"{int(value)}" if float(value).is_integer() else f"{value:.6g}"
            lines.append(f"{name:<{width}}  {kind:<9}  {detail}")
        return "\n".join(lines)

