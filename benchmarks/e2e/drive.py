"""Driving the daemon: the run's shared set-up, the closed loop, and the
one-second windows its operations are sorted into."""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from daemon import Daemon
from data import build_corpus, build_plan, presence, save_store
from wire import Connection, check_append, check_read

READS_PER_REP = 20_000
# The fastest a mixed_append cycle (24 reads + 1 append) is assumed to go;
# sizes the pre-generated append batches for a repetition.
MIN_CYCLE_S = 0.03


def pin_to_one_cpu() -> int | None:
    """Run the harness, and through inheritance the daemon and its
    workers, on one CPU.  On the 2-vCPU boxes this ran on, letting client
    and daemon float moved medians by 10-100 % from one run to the next;
    time-sharing one CPU repeats within a few percent.  A closed loop with
    one or two clients leaves little to overlap anyway (README, limits)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Session:
    """The corpus and its saved store, built once and shared by every
    daemon, every workload and the replay of one run."""

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        self.store = work / "store"
        kernel = os.times().system
        self.corpus, self.generate_s = build_corpus()
        self.store_info = save_store(self.corpus, self.store)
        self.build_kernel_s = os.times().system - kernel
        self.matrix, self.edge_index = presence(self.corpus)
        self._daemons = 0

    @property
    def build_s(self) -> float:
        info = self.store_info
        return (
            self.generate_s + info["columnar_s"] + info["load_columnar_s"]
            + info["save_s"]
        )

    def plan(self, workload, seed: int, rep_seconds: float):
        return build_plan(
            workload, self.corpus, self.matrix, self.edge_index, seed,
            n_reads=READS_PER_REP,
            n_appends=max(int(rep_seconds / MIN_CYCLE_S), 8),
        )

    def daemon(self, workload) -> Daemon:
        self._daemons += 1
        return Daemon(
            self.src, self.store, workload.daemon_flags(),
            self.work / f"tmp{self._daemons}",
        )


def prepare(daemon: Daemon, plan) -> None:
    """Materialise the workload's views and warm the daemon up."""
    wl = plan.workload
    with Connection(daemon.port) as conn:
        if wl.graph_views:
            conn.post_json("/materialize", {
                "kind": "graph", "workload": plan.view_workload,
                "budget": wl.graph_views,
            })
        if wl.agg_views:
            conn.post_json("/materialize", {
                "kind": "aggregate", "workload": plan.texts,
                "budget": wl.agg_views, "function": "sum",
            })
        for op in plan.warmup:
            ok, _ = check_read(conn.send(op.raw), 0)
            if not ok:
                raise RuntimeError(f"warm-up request failed: {op.body[:120]!r}")


def setup_seconds(session: Session, daemon: Daemon, spawned: float) -> tuple[float, float]:
    """``(setup_s, kernel_s)`` of a daemon spawned at ``spawned`` and just
    prepared: the build plus spawn -> healthy -> views -> warm-up, *net of
    kernel time*, and the kernel time left out.

    A saved store is one file per column, and creating a file on the ext4
    hosts this ran on costs the kernel anything from 17 to 350 us depending
    on its allocator's state of the minute.  A process-mode daemon creates
    36 000 files during set-up, so wall-clock set-up of one commit read 12 s
    on one run and 25 s on the next; net of kernel time it repeats within
    ~10 %.  Work a change moves into set-up is user-mode work and still
    shows; the kernel's share is reported beside it."""
    wall = session.build_s + time.perf_counter() - spawned
    kernel = session.build_kernel_s + daemon.kernel_s()
    return wall - kernel, kernel


class ClientLog:
    """What one client connection saw, one entry per operation."""

    def __init__(self) -> None:
        self.done: list[float] = []       # perf_counter at completion
        self.ns: list = []                # latency; None = failed operation
        self.records: list[int] = []      # records in the batch (0 for reads)
        self.bodies: list[bytes] = []
        self.error: BaseException | None = None


def _client(port, ops, gate, budget_s, log: ClientLog, keep: bool) -> None:
    try:
        conn = Connection(port)
    except OSError as exc:
        log.error = exc
        gate.abort()
        return
    epoch = 0
    try:
        gate.wait()
        stop_at = time.perf_counter() + budget_s
        for op in ops:
            if time.perf_counter() >= stop_at:
                break
            try:
                response = conn.send(op.raw)
            except (OSError, ValueError):
                response = None
                conn.close()
                conn = Connection(port)
            ok = False
            if response is not None:
                if op.kind == "append":
                    ok, epoch = check_append(response, op.n_records, epoch)
                else:
                    ok, epoch = check_read(response, epoch)
            log.done.append(time.perf_counter())
            log.ns.append(response.ns if ok else None)
            log.records.append(op.n_records)
            if keep:
                log.bodies.append(response.body if ok else b"")
    except BaseException as exc:  # re-raised by drive() after the join
        log.error = exc
    finally:
        conn.close()


def drive(daemon, ops, clients: int, budget_s: float, window_s: float, keep=False):
    """Closed loop: ``clients`` connections, each sending its fixed slice
    of ``ops`` back to back until the budget or the slice runs out.
    Meanwhile this thread notes the daemon's CPU time once per
    ``window_s``.  Returns ``(logs, marks)``, marks being ``(time, cpu_ms)``
    pairs from the start to the end."""
    logs = [ClientLog() for _ in range(clients)]
    gate = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(
            target=_client,
            args=(daemon.port, ops[i::clients], gate, budget_s, logs[i], keep),
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        gate.wait()
    except threading.BrokenBarrierError:
        pass
    marks = [(time.perf_counter(), daemon.cpu_ms())]
    while alive := [thread for thread in threads if thread.is_alive()]:
        alive[0].join(max(marks[-1][0] + window_s - time.perf_counter(), 0.0))
        if time.perf_counter() >= marks[-1][0] + window_s:
            marks.append((time.perf_counter(), daemon.cpu_ms()))
    marks.append((time.perf_counter(), daemon.cpu_ms()))
    for log in logs:
        if log.error is not None:
            raise log.error
    return logs, marks


def fill_failures(samples: list) -> tuple[list[int], int]:
    """Failed operations stay in the sample, at its maximum latency.
    Returns the filled sample and how many were filled."""
    good = [s for s in samples if s is not None]
    worst = max(good, default=0)
    return [worst if s is None else s for s in samples], len(samples) - len(good)


def split_ops(logs) -> tuple[list, list]:
    """``(read latencies, append latencies)`` over all clients."""
    reads = [ns for log in logs for ns, n in zip(log.ns, log.records) if not n]
    appends = [ns for log in logs for ns, n in zip(log.ns, log.records) if n]
    return reads, appends


class Window:
    """The operations that completed between two marks."""

    def __init__(self, seconds: float, cpu_ms: float):
        self.seconds = seconds
        self.cpu_ms = cpu_ms
        self.reads: list = []
        self.appends: list = []

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.appends)


def windows(logs, marks, window_s: float) -> list[Window]:
    """Operations sorted into the windows between marks.  The last window
    is whatever was left of the budget; it is dropped when short, unless
    it is the only one (a smoke run)."""
    out = [
        Window(t1 - t0, c1 - c0)
        for (t0, c0), (t1, c1) in zip(marks, marks[1:])
    ]
    edges = [t for t, _ in marks[1:]]
    for log in logs:
        k = 0
        for done, ns, records in zip(log.done, log.ns, log.records):
            while k + 1 < len(edges) and done > edges[k]:
                k += 1
            (out[k].appends if records else out[k].reads).append(ns)
    if len(out) > 1 and out[-1].seconds < window_s / 2:
        out.pop()
    return [w for w in out if w.reads]
