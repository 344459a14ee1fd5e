"""Background view maintenance driven by the observed workload.

The :class:`ViewMaintainer` closes the §5.2 selection loop against live
traffic.  Each refresh:

1. snapshots the :class:`~repro.adaptive.window.WorkloadWindow` the
   executor streams served queries into;
2. re-runs candidate generation (closed frequent element sets) and the
   greedy extended set cover over that window to get the *desired* view
   set;
3. **stages** each missing winner off-epoch — the bitmap is built under
   the executor's shared read lock, so queries keep flowing — and
   **commits** every add and drop in one exclusive-lock swap
   (:meth:`QueryExecutor.commit_view_swap`): rows appended while staging
   are covered by the append-delta, the epoch bump invalidates the
   bitmap cache, and readers observe the old view set or the new one,
   never a mix;
4. drops managed views that fell out of the desired set once their
   measured hit rate over the window decays below ``hit_rate_floor``
   (newly added views get ``grace_refreshes`` rounds to prove
   themselves).

Manually materialized views (not created by this maintainer) are never
dropped; the maintainer only manages its own.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..core.candidates import closed_candidates
from ..core.setcover import greedy_select_views
from .window import WorkloadWindow

__all__ = ["MaintenanceReport", "ViewMaintainer"]


@dataclass
class MaintenanceReport:
    """What one refresh observed and changed."""

    refreshed: bool = False          #: selection ran (window was big enough)
    reason: str = ""                 #: why selection was skipped, when it was
    window: int = 0                  #: entries in the snapshot
    desired: int = 0                 #: views the greedy chooser wanted
    added: list[str] = field(default_factory=list)
    dropped: list[str] = field(default_factory=list)
    kept: list[str] = field(default_factory=list)
    hit_rates: dict[str, float] = field(default_factory=dict)
    epoch: int | None = None         #: engine epoch after the swap, if one happened
    duration_s: float = 0.0

    @property
    def swapped(self) -> bool:
        return bool(self.added or self.dropped)


class ViewMaintainer:
    """Continuously adapt the materialized view set to observed traffic.

    Parameters
    ----------
    executor:
        The :class:`~repro.exec.QueryExecutor` to maintain.  The
        maintainer attaches its window to it and routes every
        stage/commit through the executor's locks.
    window:
        A ready :class:`WorkloadWindow` to observe (shared with other
        consumers), or None for a fresh default-sized one.
    budget:
        Maximum number of maintainer-managed graph views.
    interval_s:
        Sleep between background refreshes (``start``/``stop``); calling
        :meth:`refresh` directly is always allowed and thread-safe.
    min_support:
        Candidate generation threshold: an element set must occur in at
        least this many windowed queries to become a candidate.
    min_window:
        Skip selection entirely until the window holds this many
        queries — early traffic is too thin to justify builds.
    hit_rate_floor:
        A managed view that fell out of the desired set is dropped once
        the fraction of windowed queries whose plan used it sinks below
        this floor.
    grace_refreshes:
        Refresh rounds a newly added view is exempt from dropping (it
        needs a window's worth of traffic to accumulate hits).
    registry / tracer:
        Optional :class:`~repro.obs.MetricsRegistry` (defaults to the
        executor's) publishing ``adaptive.*`` metrics, and an optional
        :class:`~repro.obs.Tracer` given ``adaptive.refresh`` /
        ``adaptive.stage`` / ``adaptive.commit`` spans.
    """

    def __init__(
        self,
        executor,
        window: WorkloadWindow | None = None,
        budget: int = 8,
        interval_s: float = 5.0,
        min_support: int = 2,
        min_window: int = 16,
        hit_rate_floor: float = 0.05,
        grace_refreshes: int = 1,
        name_prefix: str = "adpt",
        registry=None,
        tracer=None,
    ):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if not 0.0 <= hit_rate_floor <= 1.0:
            raise ValueError("hit_rate_floor must be in [0, 1]")
        self.executor = executor
        self.window = window if window is not None else WorkloadWindow()
        executor.attach_window(self.window)
        self.budget = budget
        self.interval_s = interval_s
        self.min_support = min_support
        self.min_window = min_window
        self.hit_rate_floor = hit_rate_floor
        self.grace_refreshes = grace_refreshes
        self.name_prefix = name_prefix
        self.registry = registry if registry is not None else executor.registry
        self.tracer = tracer
        self._managed: dict[str, frozenset] = {}
        self._age: dict[str, int] = {}
        self._counter = 0
        self._refresh_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self.refreshes = 0
        self.views_added = 0
        self.views_dropped = 0
        self.last_report: MaintenanceReport | None = None
        self.last_error: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Run :meth:`refresh` every ``interval_s`` in a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-view-maintainer", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            try:
                self.refresh()
            except Exception as exc:  # keep the loop alive; surface via status
                self.last_error = exc
                if self.registry is not None:
                    self.registry.counter("adaptive.errors").inc()

    # -- maintenance ---------------------------------------------------------

    def _span(self, name: str, **meta):
        tracer = self.tracer
        return tracer.span(name, **meta) if tracer is not None else nullcontext()

    def _next_name(self) -> str:
        self._counter += 1
        return f"{self.name_prefix}{self._counter}"

    def managed_views(self) -> dict[str, frozenset]:
        with self._refresh_lock:
            return dict(self._managed)

    def refresh(self) -> MaintenanceReport:
        """One synchronous maintenance round (also what the loop runs)."""
        with self._refresh_lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> MaintenanceReport:
        t0 = time.perf_counter()
        entries = self.window.snapshot()
        report = MaintenanceReport(window=len(entries))
        with self._span("adaptive.refresh", window=len(entries)):
            # Forget managed views dropped behind our back (drop_all_views,
            # an external drop_decayed, ...).
            engine_views = self.executor.engine.graph_views
            for name in list(self._managed):
                if name not in engine_views:
                    del self._managed[name]
                    self._age.pop(name, None)
            for name in self._managed:
                self._age[name] += 1

            if len(entries) < self.min_window:
                report.reason = (
                    f"window {len(entries)} below minimum {self.min_window}"
                )
                return self._finish(report, t0)
            report.refreshed = True

            workload = [entry.query for entry in entries]
            with self._span("adaptive.select"):
                candidate_sets = closed_candidates(workload, self.min_support)
                candidates = dict(enumerate(candidate_sets))
                selection = greedy_select_views(
                    [q.elements for q in workload], candidates, self.budget
                )
                desired = [candidates[key] for key in selection.selected]
            report.desired = len(desired)
            desired_set = set(desired)

            n = len(entries)
            uses = Counter(
                name for entry in entries for name in entry.views_used
            )
            report.hit_rates = {
                name: uses.get(name, 0) / n for name in self._managed
            }
            drops = [
                name
                for name, elems in self._managed.items()
                if elems not in desired_set
                and report.hit_rates[name] < self.hit_rate_floor
                and self._age[name] > self.grace_refreshes
            ]
            report.kept = [
                name for name in self._managed if name not in drops
            ]
            # Never duplicate a bitmap that already exists — including
            # manually materialized views the maintainer does not manage.
            existing = {
                frozenset(view.elements) for view in engine_views.values()
            }
            room = self.budget - (len(self._managed) - len(drops))
            adds = [elems for elems in desired if elems not in existing]
            if len(adds) > room:
                adds = adds[: max(room, 0)]

            staged: list[tuple] = []
            if adds:
                with self._span("adaptive.stage", views=len(adds)):
                    for elems in adds:
                        name = self._next_name()
                        _, bitmap = self.executor.stage_view(elems)
                        staged.append((name, elems, bitmap))
            if staged or drops:
                with self._span(
                    "adaptive.commit", adds=len(staged), drops=len(drops)
                ):
                    swap = self.executor.commit_view_swap(
                        adds=staged, drops=drops
                    )
                report.added = swap["added"]
                report.dropped = swap["dropped"]
                report.epoch = swap["epoch"]
                for name, elems, _ in staged:
                    self._managed[name] = elems
                    self._age[name] = 0
                for name in swap["dropped"]:
                    self._managed.pop(name, None)
                    self._age.pop(name, None)
            return self._finish(report, t0)

    def _finish(self, report: MaintenanceReport, t0: float) -> MaintenanceReport:
        report.duration_s = time.perf_counter() - t0
        self.refreshes += 1
        self.views_added += len(report.added)
        self.views_dropped += len(report.dropped)
        self.last_report = report
        registry = self.registry
        if registry is not None:
            registry.counter("adaptive.refreshes").inc()
            if report.added:
                registry.counter("adaptive.views_added").inc(len(report.added))
            if report.dropped:
                registry.counter("adaptive.views_dropped").inc(len(report.dropped))
            registry.gauge("adaptive.managed_views").set(len(self._managed))
            registry.gauge("adaptive.window_size").set(report.window)
            registry.histogram("adaptive.maintenance_seconds").observe(
                report.duration_s
            )
            if report.epoch is not None:
                registry.gauge("adaptive.swap_epoch").set(report.epoch)
        return report

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        """JSON-serializable state for ``/views`` and ``repro views``."""
        with self._refresh_lock:
            managed = dict(self._managed)
            last = self.last_report
        payload = {
            "running": self.running,
            "interval_s": self.interval_s,
            "budget": self.budget,
            "hit_rate_floor": self.hit_rate_floor,
            "refreshes": self.refreshes,
            "views_added": self.views_added,
            "views_dropped": self.views_dropped,
            "window": {
                "size": self.window.size,
                "filled": len(self.window),
                "observed": self.window.observed,
            },
            "managed": {
                name: {
                    "elements": [list(e) for e in sorted(elems, key=repr)],
                    "hit_rate": (last.hit_rates.get(name) if last else None),
                }
                for name, elems in sorted(managed.items())
            },
            "last_refresh": None,
            "last_error": repr(self.last_error) if self.last_error else None,
        }
        if last is not None:
            payload["last_refresh"] = {
                "refreshed": last.refreshed,
                "reason": last.reason,
                "window": last.window,
                "desired": last.desired,
                "added": list(last.added),
                "dropped": list(last.dropped),
                "epoch": last.epoch,
                "duration_s": last.duration_s,
            }
        return payload
