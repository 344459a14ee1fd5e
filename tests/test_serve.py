"""Daemon concurrency and lifecycle: the behaviors only a live server has.

The differential suite proves the daemon doesn't change answers and the
fuzz suite proves it survives garbage; this one covers the moving parts:
many clients against a concurrent writer (epoch bumps mid-workload),
client disconnect firing the engine-side cancel token, deadline expiry
*after* the 200 is committed (mid-stream truncation with an error line),
graceful shutdown draining inflight queries, and one tenant's admission
exhaustion leaving another tenant's throughput untouched.

Engine work is made observably slow/cancellable with thin executor
wrappers (``__getattr__`` delegation), so every timing-sensitive case is
driven deterministically rather than by racing real query latencies.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import GraphAnalyticsEngine, GraphRecord, PathAggregationQuery
from repro.errors import QueryCancelledError
from repro.exec import QueryExecutor
from repro.lang import parse_aggregation, parse_query
from repro.obs import MetricsRegistry
from repro.resilience import AdmissionController
from repro.serve import (
    ServeClient,
    ServeHTTPError,
    StreamTruncatedError,
    start_in_thread,
)
from repro.serve.server import ServeConfig
from repro.serve.tenants import TenantGate, TenantPolicy
from repro.workloads import build_dataset, sample_path_queries

N_RECORDS = 60


def make_records(n=N_RECORDS, offset=0):
    return [
        GraphRecord(
            f"r{offset + i:04d}",
            {("a", "b"): float(offset + i), ("b", "c"): 2.0, ("c", "d"): 0.5},
        )
        for i in range(n)
    ]


def wire_records(records):
    return [
        {
            "id": r.record_id,
            "measures": [[u, v, val] for (u, v), val in r.measures().items()],
        }
        for r in records
    ]


def make_executor(cache_mb=4, n=N_RECORDS):
    engine = GraphAnalyticsEngine()
    engine.load_records(make_records(n))
    registry = MetricsRegistry()
    return QueryExecutor(
        engine, cache_mb=cache_mb, registry=registry
    )


class _Wrapper:
    """Delegating executor wrapper; subclasses override run_one."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class SlowExecutor(_Wrapper):
    """Cooperatively-cancellable slow queries: spins until ``delay`` has
    passed, checking the context (like a long shard fold would).  A long
    query is one the executor will not answer on the daemon's event loop,
    so it declines ``wait=False`` and is bridged."""

    def __init__(self, inner, delay=0.3):
        super().__init__(inner)
        self.delay = delay
        self.cancelled = threading.Event()
        self.started = threading.Event()

    def run_one(self, query, fetch_measures=True, ctx=None, wait=True, **kw):
        if not wait:
            return None
        self.started.set()
        end = time.monotonic() + self.delay
        try:
            while time.monotonic() < end:
                if ctx is not None:
                    ctx.check()
                time.sleep(0.01)
        except QueryCancelledError:
            self.cancelled.set()
            raise
        return self._inner.run_one(
            query, fetch_measures=fetch_measures, ctx=ctx, **kw
        )


class OutlastDeadline(_Wrapper):
    """Computes the full answer, then stalls past the query's deadline —
    so the timeout can only surface *mid-stream*.  A stall is a wait, so
    it declines ``wait=False`` like :class:`SlowExecutor`."""

    def run_one(self, query, fetch_measures=True, ctx=None, wait=True, **kw):
        if not wait:
            return None
        result = self._inner.run_one(
            query, fetch_measures=fetch_measures, ctx=None, **kw
        )
        if ctx is not None and ctx.deadline is not None:
            time.sleep(max(ctx.deadline.remaining(), 0.0) + 0.05)
        return result


class HeldWriter(_Wrapper):
    """Holds the executor's write lock inside ``append_records`` until
    ``release`` is set, then appends."""

    def __init__(self, inner):
        super().__init__(inner)
        self.holding = threading.Event()
        self.release = threading.Event()

    def append_records(self, records):
        with self._inner._rw.write():
            self.holding.set()
            self.release.wait(10)
        return self._inner.append_records(records)


class TestWriterLock:
    def test_read_behind_a_writer_is_bridged_and_the_loop_stays_free(self):
        """While a writer holds the lock, a read waits off the loop: the
        loop's probe never blocks on the lock, so /healthz answers while
        the read is parked, and the read is answered once the write ends."""
        executor = make_executor()
        held = HeldWriter(executor)
        handle = start_in_thread(held)
        registry = executor.registry
        answers: list = []

        def post(call):
            with ServeClient(*handle.address) as client:
                answers.append(call(client))

        appender = threading.Thread(
            target=post,
            args=(lambda c: c.append(wire_records(make_records(10, offset=500))),),
        )
        reader = threading.Thread(target=post, args=(lambda c: c.query({"q": "a -> b"}),))
        try:
            appender.start()
            assert held.holding.wait(5), "the append never took the lock"
            reader.start()
            deadline = time.monotonic() + 5
            while registry.counter("serve.requests").value < 2:
                assert time.monotonic() < deadline, "the read never reached the daemon"
                time.sleep(0.005)
            with ServeClient(*handle.address) as client:
                assert client.healthz()["status"] == "ok"
            assert reader.is_alive() and not answers, "the read did not wait"
            held.release.set()
            reader.join(10)
            appender.join(10)
            (read,) = [a for a in answers if not isinstance(a, dict)]
            assert len(read.record_ids) in (N_RECORDS, N_RECORDS + 10)
            assert registry.counter("serve.loop_answers").value == 0
            with ServeClient(*handle.address) as client:
                assert len(client.query({"q": "a -> b"}).record_ids) == N_RECORDS + 10
            assert registry.counter("serve.loop_answers").value == 1
        finally:
            held.release.set()
            handle.stop()
            executor.close()


class TestConcurrentClientsAndWriter:
    def test_multi_client_stress_with_concurrent_writer(self):
        """8 reader threads × queries against a writer appending batches:
        every answer must be internally consistent — the row count of the
        epoch it was served at — and epochs must be monotone per client."""
        executor = make_executor(cache_mb=8)
        handle = start_in_thread(executor)
        counts_by_epoch = {executor.epoch: N_RECORDS}
        failures: list = []
        stop = threading.Event()

        def writer():
            with ServeClient(*handle.address) as client:
                for batch in range(4):
                    records = make_records(10, offset=1000 + batch * 10)
                    reply = client.append(wire_records(records))
                    counts_by_epoch[reply["epoch"]] = (
                        N_RECORDS + (batch + 1) * 10
                    )
                    time.sleep(0.02)
            stop.set()

        def reader():
            try:
                with ServeClient(*handle.address) as client:
                    last_epoch = -1
                    while not stop.is_set():
                        result = client.query({"q": "a -> b"})
                        assert result.epoch >= last_epoch, "epoch went backwards"
                        last_epoch = result.epoch
                        expected = counts_by_epoch.get(result.epoch)
                        if expected is not None:
                            assert len(result.record_ids) == expected, (
                                f"epoch {result.epoch}: "
                                f"{len(result.record_ids)} != {expected}"
                            )
            except Exception as exc:  # surfaced below
                failures.append(exc)

        try:
            readers = [threading.Thread(target=reader) for _ in range(8)]
            w = threading.Thread(target=writer)
            for t in readers:
                t.start()
            w.start()
            w.join(timeout=30)
            stop.set()
            for t in readers:
                t.join(timeout=30)
            assert not failures, failures[0]
            with ServeClient(*handle.address) as client:
                final = client.query({"q": "a -> b"})
                assert len(final.record_ids) == N_RECORDS + 40
        finally:
            handle.stop()
            executor.close()


class TestCancellation:
    def test_client_disconnect_cancels_engine_work(self, read_path):
        """Dropping the socket mid-query fires the CancelToken: the engine
        stops (the wrapper observes QueryCancelledError) instead of
        finishing work nobody will read."""
        executor = make_executor()
        slow = SlowExecutor(executor, delay=10.0)  # would block 10s if leaked
        handle = start_in_thread(slow)
        try:
            body = b'{"q": "a -> b"}'
            head = (
                f"POST /query HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            sock = socket.create_connection(handle.address, timeout=5)
            sock.sendall(head + body)
            assert slow.started.wait(timeout=5), "query never reached engine"
            sock.close()  # vanish mid-query
            assert slow.cancelled.wait(timeout=5), (
                "disconnect did not cancel the engine-side query"
            )
            # Daemon is still healthy for the next client.
            with ServeClient(*handle.address) as client:
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()
            executor.close()

    def test_deadline_expiry_mid_stream_truncates_with_error_line(self):
        """Once the 200 is on the wire the daemon can't change the status;
        an expired deadline mid-stream must end the NDJSON with a
        structured error line and close the connection."""
        executor = make_executor()
        wrapped = OutlastDeadline(executor)
        config = ServeConfig(stream_check_every=1)
        handle = start_in_thread(wrapped, config=config)
        try:
            with ServeClient(*handle.address) as client:
                with pytest.raises(StreamTruncatedError) as err:
                    client.query({"q": "a -> b", "timeout_ms": 150})
            assert err.value.error["code"] == "timeout"
            assert err.value.error["exit_code"] == 3
            # Header line decoded fine; fewer rows than promised arrived.
            assert len(err.value.lines) >= 1
            import json

            header = json.loads(err.value.lines[0])
            assert header["count"] == N_RECORDS
            assert len(err.value.lines) - 1 < header["count"]
            with ServeClient(*handle.address) as client:
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()
            executor.close()

    def test_deadline_before_execution_is_clean_504(self):
        executor = make_executor()
        slow = SlowExecutor(executor, delay=5.0)
        handle = start_in_thread(slow)
        try:
            with ServeClient(*handle.address) as client:
                with pytest.raises(ServeHTTPError) as err:
                    client.query({"q": "a -> b", "timeout_ms": 50})
                assert err.value.status == 504
                assert err.value.code == "timeout"
                assert err.value.exit_code == 3
        finally:
            handle.stop()
            executor.close()

    def test_body_without_timeout_ms_gets_the_executors_default(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(make_records())
        executor = QueryExecutor(engine, default_timeout=1e-9)
        handle = start_in_thread(executor)
        try:
            with ServeClient(*handle.address) as client:
                with pytest.raises(ServeHTTPError) as err:
                    client.query({"q": "a -> b"})
                assert err.value.status == 504
                assert err.value.code == "timeout"
        finally:
            handle.stop()
            executor.close()


class TestGracefulShutdown:
    def test_stop_drains_inflight_queries(self):
        """stop() must let a query already executing finish and deliver
        its complete response before the listener dies."""
        executor = make_executor()
        slow = SlowExecutor(executor, delay=0.4)
        handle = start_in_thread(slow)
        results: list = []
        failures: list = []

        def run_query():
            try:
                with ServeClient(*handle.address) as client:
                    results.append(client.query({"q": "a -> b"}))
            except Exception as exc:
                failures.append(exc)

        t = threading.Thread(target=run_query)
        t.start()
        assert slow.started.wait(timeout=5)
        handle.stop(drain_s=10)  # returns only when drained
        t.join(timeout=10)
        executor.close()
        assert not failures, failures[0]
        assert len(results) == 1
        assert len(results[0].record_ids) == N_RECORDS

    def test_new_connections_refused_after_stop(self):
        executor = make_executor()
        handle = start_in_thread(executor)
        address = handle.address
        handle.stop()
        executor.close()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1).close()


class TestTenantIsolation:
    def test_try_admit_gives_the_tenant_slot_back_when_shared_refuses(self):
        gate = TenantGate(
            shared=AdmissionController(max_inflight=1),
            policy=TenantPolicy(max_inflight=2),
        )
        held = gate.try_admit("t1")
        assert held is not None and gate.inflight() == 2  # tenant + shared
        assert gate.try_admit("t1") is None
        assert gate.inflight() == 2, "the refused probe kept its tenant slot"
        held.close()
        assert gate.inflight() == 0
        stats = gate.stats()
        assert stats["shared"]["rejected"] == 0
        assert stats["tenants"]["t1"] == {"admitted": 2, "rejected": 0, "inflight": 0}
        with TenantGate().try_admit("t1") as permit:  # ungoverned: a no-op permit
            assert permit is not None

    def test_tenant_exhaustion_does_not_starve_other_tenant(self):
        """Tenant A saturates its per-tenant inflight budget (collecting
        429s); tenant B, under the same daemon, sees zero rejections."""
        executor = make_executor()
        slow = SlowExecutor(executor, delay=0.25)
        gate = TenantGate(policy=TenantPolicy(max_inflight=2, max_wait_s=0.0))
        # Wide engine bridge so tenant A's queries occupy admission slots,
        # not all the worker threads.
        config = ServeConfig(engine_threads=12)
        handle = start_in_thread(slow, gate=gate, config=config)
        a_ok, a_rejected, b_ok, b_rejected = [], [], [], []
        failures: list = []

        def tenant_a(idx):
            try:
                with ServeClient(*handle.address) as client:
                    try:
                        client.query({"q": "a -> b", "tenant": "tenant-a"})
                        a_ok.append(idx)
                    except ServeHTTPError as err:
                        assert err.status == 429, err
                        assert err.code == "admission-rejected"
                        assert err.exit_code == 4
                        a_rejected.append(idx)
            except Exception as exc:
                failures.append(exc)

        def tenant_b():
            try:
                with ServeClient(*handle.address) as client:
                    for _ in range(3):
                        try:
                            client.query({"q": "a -> b", "tenant": "tenant-b"})
                            b_ok.append(1)
                        except ServeHTTPError:
                            b_rejected.append(1)
            except Exception as exc:
                failures.append(exc)

        try:
            storm = [
                threading.Thread(target=tenant_a, args=(i,)) for i in range(6)
            ]
            quiet = threading.Thread(target=tenant_b)
            for t in storm:
                t.start()
            quiet.start()
            for t in storm:
                t.join(timeout=30)
            quiet.join(timeout=30)
            assert not failures, failures[0]
            assert a_rejected, "tenant A never hit its admission limit"
            assert a_ok, "tenant A should still get some queries through"
            assert b_ok and not b_rejected, (
                f"tenant B was starved: ok={len(b_ok)} "
                f"rejected={len(b_rejected)}"
            )
            # The admission slot is released after the last response byte
            # is written, so the client can observe its answer a tick
            # before the server closes the permit — poll briefly.
            deadline = time.monotonic() + 5.0
            while gate.inflight() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gate.inflight() == 0
        finally:
            handle.stop()
            executor.close()

    def test_rejected_tenant_gets_retry_after_header(self):
        executor = make_executor()
        slow = SlowExecutor(executor, delay=0.5)
        gate = TenantGate(policy=TenantPolicy(max_inflight=1, max_wait_s=0.0))
        handle = start_in_thread(slow, gate=gate)
        try:
            blocker = threading.Thread(
                target=lambda: ServeClient(*handle.address).query(
                    {"q": "a -> b", "tenant": "t1"}
                )
            )
            blocker.start()
            assert slow.started.wait(timeout=5)
            with ServeClient(*handle.address) as client:
                response = client.request(
                    "POST", "/query", {"q": "a -> b", "tenant": "t1"}
                )
                assert response.status == 429
                assert "retry-after" in response.headers
            blocker.join(timeout=10)
        finally:
            handle.stop()
            executor.close()


def _views(engine):
    return (
        {name: view.elements for name, view in engine.graph_views.items()},
        {name: repr(view) for name, view in engine.aggregate_views.items()},
    )


class TestMaterializeOverTheWire:
    """``/materialize`` builds, and drops, the same views at the same
    epoch as the executor it serves would in process."""

    def test_each_kind_matches_the_in_process_executor(self):
        served, local = make_executor(), make_executor()
        graph = ["a -> b -> c", [["b", "c"], ["c", "d"]]]
        aggregate = ["SUM a -> b -> c", "SUM b -> c -> d"]
        handle = start_in_thread(served)
        try:
            with ServeClient(*handle.address) as client:
                doc = client.materialize({"kind": "graph", "workload": graph, "budget": 2})
                local.materialize_graph_views(
                    [parse_query("a -> b -> c"), parse_query("b -> c -> d")], 2
                )
                assert served.engine.graph_views
                assert _views(served.engine) == _views(local.engine)
                assert doc["epoch"] == served.epoch == local.epoch
                doc = client.materialize(
                    {"kind": "aggregate", "workload": aggregate, "budget": 1, "function": "sum"}
                )
                local.materialize_aggregate_views(
                    [parse_aggregation(text) for text in aggregate], 1, function="sum"
                )
                assert served.engine.aggregate_views
                assert _views(served.engine) == _views(local.engine)
                assert doc["epoch"] == served.epoch == local.epoch
                doc = client.materialize({"kind": "drop"})
                local.drop_all_views()
                assert doc == {"dropped": True, "epoch": local.epoch}
                assert _views(served.engine) == _views(local.engine) == ({}, {})
        finally:
            handle.stop()
            served.close()
            local.close()

    def test_aggregate_element_lists_and_plain_paths_match_the_in_process_call(self):
        # Entries without SUM are wrapped as the in-process call takes
        # them, in the payload's function or SUM.
        served, local = make_executor(), make_executor()
        workload = [[["a", "b"], ["b", "c"]], "b -> c -> d"]
        handle = start_in_thread(served)
        try:
            with ServeClient(*handle.address) as client:
                for function in (None, "max"):
                    payload = {"kind": "aggregate", "workload": workload, "budget": 1}
                    if function:
                        payload["function"] = function
                    doc = client.materialize(payload)
                    local.materialize_aggregate_views(
                        [
                            PathAggregationQuery(parse_query(text), function or "sum")
                            for text in ("a -> b -> c", "b -> c -> d")
                        ],
                        1,
                        function=function or "sum",
                    )
                    assert served.engine.aggregate_views
                    assert _views(served.engine) == _views(local.engine)
                    assert doc["epoch"] == served.epoch == local.epoch
        finally:
            handle.stop()
            served.close()
            local.close()

    @pytest.mark.parametrize("payload", [
        {"kind": "nope", "workload": ["a -> b"]},
        {"kind": "graph", "workload": []},
        {"kind": "graph"},
        {"kind": "graph", "workload": [5]},
        {"kind": "graph", "workload": ["a -> b"], "budget": True},
        {"kind": "graph", "workload": ["a -> b"], "budget": 0},
        {"kind": "aggregate", "workload": ["a -> b"], "budget": -1},
        {"kind": "aggregate", "workload": ["a -> b OR b -> c"]},
        {"kind": "aggregate", "workload": [[["a", "b"]]], "function": 5},
    ], ids=["kind", "empty", "missing", "entry", "bool-budget", "zero-budget",
            "negative-budget", "aggregate-of-or", "bad-function"])
    def test_bad_requests_are_400_and_change_nothing(self, payload):
        executor = make_executor()
        handle = start_in_thread(executor)
        try:
            epoch = executor.epoch
            with ServeClient(*handle.address) as client:
                with pytest.raises(ServeHTTPError) as info:
                    client.materialize(payload)
            assert info.value.status == 400
            assert executor.epoch == epoch and not executor.engine.graph_views
        finally:
            handle.stop()
            executor.close()


class TestMetricsOverTheWire:
    def test_text_json_and_head(self):
        executor = make_executor()
        handle = start_in_thread(executor, registry=executor.registry)
        try:
            with ServeClient(*handle.address) as client:
                client.query({"q": "a -> b"})
                text = client.request("GET", "/metrics")
                assert text.status == 200
                assert text.headers["content-type"].startswith("text/plain")
                assert "exec.queries_served" in text.body.decode()
                assert client.metrics()["exec.queries_served"]["value"] == 1
                head = client.request("HEAD", "/metrics")
                assert head.status == 200 and head.body == b""
        finally:
            handle.stop()
            executor.close()


def _tree(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


class TestServeCommand:
    """``repro serve`` as the benchmark starts it: a subprocess over a
    database directory, with the flags ``benchmarks/e2e/data.py`` passes,
    stopped with SIGINT."""

    def test_process_mode_daemon_answers_and_leaves_the_database_alone(self, tmp_path):
        corpus = build_dataset("NY", n_records=200, seed=31)
        queries = sample_path_queries(corpus, n_queries=8, n_edges=3, seed=32)
        wire = [[list(edge) for edge in sorted(q.elements)] for q in queries]
        engine = GraphAnalyticsEngine()
        engine.load_records(list(corpus.to_records()))
        db, spool = tmp_path / "db", tmp_path / "tmp"
        engine.save(db)
        spool.mkdir()
        before = _tree(db)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(db), "--exec-mode",
             "process", "--workers", "2", "--shards", "2", "--jobs", "2",
             "--port", "0"],
            env=dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(spool)),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            # A shell that backgrounds the suite ignores SIGINT in its children.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+) ", banner)
            assert match, banner
            query, expected = queries[0], engine.query(queries[0])
            with ServeClient("127.0.0.1", int(match.group(1))) as client:
                got = client.query({"elements": wire[0]})
                assert got.record_ids == expected.record_ids
                assert {e: list(v) for e, v in got.measures.items()} == {
                    e: list(v) for e, v in expected.measures.items()
                }
                client.materialize({"kind": "graph", "workload": wire, "budget": 2})
                record = {"id": "extra", "measures": [[*edge, 1.0] for edge in query.elements]}
                assert client.append([record])["appended"] == 1
                assert "exec.queries_served" in client.metrics()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert _tree(db) == before
        assert list(spool.iterdir()) == []
