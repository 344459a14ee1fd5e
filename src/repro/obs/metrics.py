"""Metrics: counters, gauges, and histograms, plus counts read at export.

One :class:`MetricsRegistry` holds what the serving layers push —
:class:`~repro.exec.QueryExecutor`'s per-query latency histograms, the
daemon's ``serve.*`` and the maintainer's ``adaptive.*`` — and reads
what it does not own: an attached engine
(:meth:`GraphAnalyticsEngine.use_metrics`) reports its ``io.*`` column
counts and its bitmap cache's ``cache.*`` traffic each time the registry
exports.  Each event is counted once, where it happens, so a query
makes no registry call and ``reset()`` cannot orphan a count.  A
benchmark run (or the ``repro metrics`` CLI) dumps one JSON document
covering every stage the paper's figures break down.

All metric types are thread-safe (the daemon's bridge threads push
concurrently) and the registry's exports are deterministic: names are
sorted and histogram summaries are computed from the retained samples,
so two identical runs serialize identically.
"""

from __future__ import annotations

import json
import threading
from bisect import insort

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing tally."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that can move both ways (bytes held, entries, epochs)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Sampled distribution with percentile summaries.

    Retains up to ``max_samples`` observations (beyond that, new samples
    deterministically overwrite old ones round-robin, keeping summaries
    representative of the recent window while ``count``/``sum`` stay
    exact).  Percentiles use the nearest-rank method over the sorted
    retained samples.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", max_samples: int = 8192):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.help = help
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


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name → metric map with get-or-create accessors.

    Re-requesting a name returns the existing metric; requesting an
    existing name as a different type raises — a registry-wide schema
    conflict is a programming error, not a runtime condition.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._names: list[str] = []  # kept sorted for deterministic export
        self._sources: dict = {}  # attached engines, used as an ordered set

    def _get_or_create(self, name: str, kind: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _METRIC_TYPES[kind](name, help, **kwargs)
                self._metrics[name] = metric
                insort(self._names, name)
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, requested {kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, "gauge", help)

    def histogram(
        self, name: str, help: str = "", max_samples: int = 8192
    ) -> Histogram:
        return self._get_or_create(
            name, "histogram", help, max_samples=max_samples
        )

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._names)

    def attach(self, source) -> None:
        """Export ``source.metrics()`` — ``{name: (type, value)}``, read at
        each export — with this registry's own metrics.  Attaching a
        source again changes nothing; :meth:`reset` keeps it attached."""
        with self._lock:
            self._sources[source] = None

    def reset(self) -> None:
        """Drop every registered metric (tests and benchmark phases)."""
        with self._lock:
            self._metrics.clear()
            self._names.clear()

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic JSON-ready dump: ``{name: {type, ...}}`` sorted.
        Attached sources are read now; a name several report is summed."""
        with self._lock:
            items = [(name, self._metrics[name]) for name in self._names]
            sources = list(self._sources)
        out = {name: metric.to_dict() for name, metric in items}
        for source in sources:
            for name, (kind, value) in source.metrics().items():
                entry = out.setdefault(name, {"type": kind, "value": 0.0})
                entry["value"] += value
        return dict(sorted(out.items()))

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

