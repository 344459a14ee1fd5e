"""Resilient-serving tests: deadlines, cancellation, admission, typed failures.

Covers the governance layer end to end: the context primitives
(:class:`Deadline` / :class:`CancelToken` / :class:`QueryContext`), the
admission gate, and the integration through :class:`QueryExecutor` / the
engine facade / the CLI — including the acceptance contracts: a query
folds ``[0, n)`` in one call and a failure of that fold is one typed
error naming every record, a deadline of D cancels within 2·D, and one
failing batch slot never poisons the others.  Fold failures are injected
in process by :func:`tests.faultinject.install_faulty_shard`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    QueryExecutor,
)
from repro.core import PathAggregationQuery
from repro.errors import (
    AdmissionRejectedError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ResilienceError,
    ShardExecutionError,
)
from repro.obs import MetricsRegistry
from repro.resilience import (
    AdmissionController,
    CancelToken,
    Deadline,
    QueryContext,
)
from tests import faultinject as fi

# -- fixtures ----------------------------------------------------------------

N_RECORDS = 40


def _records(n: int = N_RECORDS) -> list[GraphRecord]:
    records = []
    for i in range(n):
        measures = {("A", "D"): 1.0 + i, ("D", "E"): 2.0}
        if i % 3 == 0:
            measures[("D", "F")] = 3.0
        records.append(GraphRecord(f"r{i:03d}", measures))
    return records


def _engine() -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine()
    engine.load_records(_records())
    return engine


QUERY = GraphQuery.from_node_chain("A", "D", "E")
AGG = PathAggregationQuery(GraphQuery.from_node_chain("A", "D", "E"), "sum")


# -- context primitives ------------------------------------------------------


class TestDeadline:
    def test_zero_or_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0)
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_fresh_deadline_passes_check(self):
        deadline = Deadline.after(60.0)
        deadline.check()
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0

    def test_expired_deadline_raises_typed_error_with_budget(self):
        deadline = Deadline.after(1e-9)
        time.sleep(0.002)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(QueryTimeoutError) as exc_info:
            deadline.check()
        assert exc_info.value.budget == 1e-9
        assert isinstance(exc_info.value, ResilienceError)
        assert isinstance(exc_info.value, ReproError)


class TestCancelToken:
    def test_check_passes_until_cancelled(self):
        token = CancelToken()
        token.check()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        with pytest.raises(QueryCancelledError):
            token.check()

    def test_cancel_is_idempotent(self):
        token = CancelToken()
        token.cancel()
        token.cancel()
        assert token.cancelled


class TestQueryContext:
    def test_bare_context_checks_are_noops(self):
        ctx = QueryContext.start()
        ctx.check()
        assert ctx.deadline is None and ctx.token is None

    def test_zero_timeout_means_no_deadline(self):
        assert QueryContext.start(timeout=0).deadline is None

    def test_cancellation_wins_over_expired_deadline(self):
        token = CancelToken()
        token.cancel()
        ctx = QueryContext.start(timeout=1e-9, token=token)
        time.sleep(0.002)
        with pytest.raises(QueryCancelledError):
            ctx.check()


# -- admission control -------------------------------------------------------


class TestAdmissionController:
    def test_inflight_cap_rejects_with_retry_hint(self):
        gate = AdmissionController(max_inflight=1, max_wait_s=0.0)
        assert gate.try_admit()
        with pytest.raises(AdmissionRejectedError) as exc_info:
            with gate.admit():
                pass
        assert exc_info.value.retry_after > 0
        gate.release()
        with gate.admit():
            assert gate.stats.inflight == 1
        stats = gate.stats
        assert stats.admitted == 2 and stats.rejected == 1
        assert stats.inflight == 0

    def test_failed_probe_is_not_a_rejection(self):
        gate = AdmissionController(max_inflight=1, max_wait_s=5.0)
        assert gate.try_admit()
        assert not gate.try_admit()  # a probe, not a rejection
        gate.release()
        with gate.admit():
            pass
        stats = gate.stats
        assert (stats.admitted, stats.rejected, stats.inflight) == (2, 0, 0)

    def test_token_bucket_caps_burst(self):
        gate = AdmissionController(rate=4.0, max_wait_s=0.0)
        for _ in range(4):  # the bucket holds max(rate, 1) tokens
            assert gate.try_admit()
        assert not gate.try_admit()  # bucket drained
        time.sleep(0.3)  # ~1.2 tokens refill at rate=4/s
        assert gate.try_admit()
        for _ in range(5):
            gate.release()

    def test_bounded_wait_admits_when_gate_reopens(self):
        gate = AdmissionController(max_inflight=1, max_wait_s=5.0)
        assert gate.try_admit()

        import threading

        admitted_after = []

        def later_release():
            time.sleep(0.05)
            gate.release()

        thread = threading.Thread(target=later_release)
        thread.start()
        started = time.perf_counter()
        with gate.admit():
            admitted_after.append(time.perf_counter() - started)
        thread.join()
        assert 0.01 < admitted_after[0] < 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(rate=0)
        with pytest.raises(ValueError):
            AdmissionController(max_wait_s=-1)


# -- executor integration: one fold per query ------------------------------


# 2 words per column plus a partial one: more than one word to fold.
ALIGNED_RECORDS = 2 * 64 + 37
SELECTIVE = GraphQuery.from_node_chain("A", "D", "F")  # every third record


def _expected_ids() -> list[str]:
    return [f"r{i:03d}" for i in range(0, ALIGNED_RECORDS, 3)]


class TestOneFoldQueries:
    """A query folds ``[0, n)`` in one call, and a failure of that fold is
    typed and names ``[0, n)``: there is no range of its own to retry or
    skip."""

    def _engine(self, reopen, shards: int) -> GraphAnalyticsEngine:
        engine = GraphAnalyticsEngine()
        engine.load_records(_records(ALIGNED_RECORDS))
        return reopen(engine, shards)

    @pytest.mark.parametrize("shards", [1, 8])
    def test_failure_without_a_policy_is_typed(self, reopen, shards):
        """Whatever shard count the store was loaded with, the fold that
        fails is the one over ``[0, n)``."""
        engine = self._engine(reopen, shards)
        fi.install_faulty_shard(engine)
        with pytest.raises(ShardExecutionError) as info:
            engine.query(SELECTIVE)
        assert (info.value.shard, info.value.start, info.value.stop) == (0, 0, ALIGNED_RECORDS)

    @pytest.mark.parametrize("shards", [1, 8])
    def test_the_executor_policy_never_supervises_the_one_fold(self, reopen, shards):
        """Under an executor, which holds no retry policy, a failing fold
        is called once and raises; it is not retried, and healed it
        answers exactly."""
        engine = self._engine(reopen, shards)
        proxy = fi.install_faulty_shard(engine)
        with QueryExecutor(engine, cache_mb=1) as executor:
            with pytest.raises(ShardExecutionError) as info:
                executor.run_one(SELECTIVE)
            assert (info.value.shard, info.value.start, info.value.stop) == (
                0, 0, ALIGNED_RECORDS,
            )
            assert proxy.calls == 1
            proxy.heal()
            # The failure cached nothing: the next run folds and answers.
            assert executor.run_one(SELECTIVE).record_ids == _expected_ids()
        assert proxy.calls == 2


class TestDeadlinesAndCancellation:
    def test_deadline_cancels_within_twice_the_budget(self):
        engine = _engine()
        # Four slow steps stacked on the one fold, 0.08s in all.
        for _ in range(4):
            fi.install_faulty_shard(engine, fail_times=0, delay=0.02)
        budget = 0.05
        with QueryExecutor(engine) as executor:
            started = time.perf_counter()
            with pytest.raises(QueryTimeoutError):
                executor.run_one(QUERY, timeout=budget)
            elapsed = time.perf_counter() - started
        # Acceptance bound: deadline D honoured within 2·D (one operator
        # step of slack; each injected step is 0.02s < D).
        assert elapsed < 2 * budget

    def test_cancel_token_stops_an_inflight_batch(self):
        engine = _engine()
        token = CancelToken()
        token.cancel()
        with QueryExecutor(engine) as executor:
            results = executor.run_batch(
                [QUERY] * 4, return_errors=True, cancel=token
            )
        assert all(isinstance(r, QueryCancelledError) for r in results)

    def test_timeout_metrics_are_published(self):
        registry = MetricsRegistry()
        engine = _engine()
        with QueryExecutor(engine, registry=registry) as executor:
            with pytest.raises(QueryTimeoutError):
                executor.run_one(QUERY, timeout=1e-9)
        assert registry.counter("resilience.timeouts").value == 1


class TestBatchErrorIsolation:
    """A failing fold fails its own batch slot, typed, and no other."""

    def test_one_bad_slot_does_not_poison_the_batch(self):
        engine = _engine()
        fault = fi.install_faulty_shard(engine, fail_times=1)
        safe = GraphQuery.from_node_chain("A", "D")
        with QueryExecutor(engine) as executor:
            results = executor.run_batch([QUERY, safe], return_errors=True)
        # The first fold fails; the second slot still answers.
        assert isinstance(results[0], ShardExecutionError)
        assert len(results[1]) == N_RECORDS
        assert fault.failures == 1

    def test_mixed_results_align_with_submission_order(self):
        engine = _engine()
        fault = fi.install_faulty_shard(engine, fail_times=2)
        with QueryExecutor(engine) as executor:
            results = executor.run_batch([QUERY, AGG, QUERY, AGG], return_errors=True)
        assert [type(r).__name__ for r in results] == [
            "ShardExecutionError", "ShardExecutionError",
            "GraphQueryResult", "PathAggregationResult",
        ]
        assert fault.failures == 2

    def test_default_mode_raises_first_error_after_finishing_batch(self):
        engine = _engine()
        fault = fi.install_faulty_shard(engine)
        with QueryExecutor(engine) as executor:
            with pytest.raises(ShardExecutionError):
                executor.run_batch([QUERY, QUERY])
        assert fault.calls == 2  # the whole batch ran before the raise

    def test_parallel_batch_isolates_errors_too(self):
        """Batches run from two client threads at once isolate their
        failures slot by slot, as one batch does."""
        engine = _engine()
        fault = fi.install_faulty_shard(engine)
        with QueryExecutor(engine) as executor, ThreadPoolExecutor(2) as clients:
            batches = list(clients.map(
                lambda _: executor.run_batch([QUERY] * 4, return_errors=True),
                range(2),
            ))
        assert all(isinstance(r, ShardExecutionError) for b in batches for r in b)
        assert fault.failures == 8


class TestExecutorDefaults:
    def test_default_timeout_applies_when_call_says_nothing(self):
        engine = _engine()
        with QueryExecutor(engine, default_timeout=1e-9) as executor:
            with pytest.raises(QueryTimeoutError):
                executor.run_one(QUERY)
            # Per-call override wins over the default.
            assert len(executor.run_one(QUERY, timeout=30.0)) == N_RECORDS


# -- CLI surfacing -----------------------------------------------------------


class TestCLIResilience:
    @pytest.fixture()
    def db(self, tmp_path):
        engine = GraphAnalyticsEngine()
        engine.load_records(_records(20))
        path = tmp_path / "db"
        engine.save(path)
        return str(path)

    def test_timeout_flag_maps_to_exit_code_3(self, db, capsys):
        from repro.cli import main

        code = main(["query", db, "A -> D -> E", "--timeout", "1e-9"])
        assert code == 3
        assert "timed out" in capsys.readouterr().err

    def test_resilience_flags_accepted_on_healthy_db(self, db, capsys):
        from repro.cli import main

        code = main([
            "query", db, "A -> D -> E",
            "--timeout", "30", "--limit", "2",
        ])
        assert code == 0
        assert "matching records" in capsys.readouterr().out

    def test_batch_renders_per_query_errors(self, db, tmp_path, capsys):
        from repro.cli import main

        workload = tmp_path / "queries.txt"
        workload.write_text("A -> D -> E\nA -> D\n")
        code = main(["batch", db, str(workload), "--timeout", "1e-9"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.count("ERROR") == 2
        assert "2 failed" in captured.err
