"""Resilient-serving tests: deadlines, cancellation, admission, degraded mode.

Covers the governance layer end to end: the context primitives
(:class:`Deadline` / :class:`CancelToken` / :class:`QueryContext`), the
admission gate, the retry helper, the per-range circuit breaker, the
resilience policy's supervised range execution, and the integration
through :class:`QueryExecutor` / the engine facade / the CLI — including
the acceptance contracts: a failing range yields a typed error by
default, ``partial_ok`` answers are exact on healthy ranges with accurate
skipped record ranges, the breaker caps retry storms, a deadline of D
cancels within 2·D, and degraded merges never poison the cache.

Supervision lives where a record range can fail on its own: the process
runner.  Its cases run against one module-scoped process-mode executor
whose workers fail through a switchable :class:`~tests.faultinject.WorkerFault`;
an in-process fold is one call over ``[0, n)``, typed on its first
failure.
"""

from __future__ import annotations

import time

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
    CircuitOpenError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ResilienceError,
    ShardExecutionError,
)
from repro.obs import MetricsRegistry
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    CancelToken,
    CircuitBreaker,
    Deadline,
    QueryContext,
    ResiliencePolicy,
    retry_with_backoff,
)
from tests import faultinject as fi

# -- fixtures ----------------------------------------------------------------

N_SHARDS = 4
PER_SHARD = 10
N_RECORDS = N_SHARDS * PER_SHARD


def _records(n: int = N_RECORDS) -> list[GraphRecord]:
    records = []
    for i in range(n):
        measures = {("A", "D"): 1.0 + i, ("D", "E"): 2.0}
        if i % 3 == 0:
            measures[("D", "F")] = 3.0
        records.append(GraphRecord(f"r{i:03d}", measures))
    return records


def _sharded_engine() -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine(shards=N_SHARDS)
    engine.load_records(_records())
    return engine


QUERY = GraphQuery.from_node_chain("A", "D", "E")
AGG = PathAggregationQuery(GraphQuery.from_node_chain("A", "D", "E"), "sum")


def _no_sleep(_seconds: float) -> None:
    """Injectable sleep that never actually waits (keeps tests fast)."""


def _counts(registry) -> dict[str, float]:
    names = ("shard_retries", "shard_failures", "breaker_refusals", "shards_skipped")
    return {n: registry.counter(f"resilience.{n}").value for n in names}


@pytest.fixture
def breaker_writes_hold_the_lock(monkeypatch):
    """Every write to a breaker's state after construction must happen
    under its lock."""
    unlocked = []

    def checked(self, name, value):
        if name in vars(self) and not self._lock.locked():
            unlocked.append(name)
        object.__setattr__(self, name, value)

    monkeypatch.setattr(CircuitBreaker, "__setattr__", checked)
    yield
    assert not unlocked, f"breaker state written without its lock: {unlocked}"


class _Flaky:
    """A range fold that fails its first ``fail_times`` calls (``None``:
    every call), then answers."""

    def __init__(self, fail_times=None):
        self.fail_times = fail_times
        self.calls = self.failures = 0

    def __call__(self):
        self.calls += 1
        if self.fail_times is None or self.failures < self.fail_times:
            self.failures += 1
            raise OSError("injected range failure")
        return "bitmap"


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
        assert not ctx.degraded
        assert ctx.report() is None

    def test_zero_timeout_means_no_deadline(self):
        assert QueryContext.start(timeout=0).deadline is None

    def test_cancellation_wins_over_expired_deadline(self):
        token = CancelToken()
        token.cancel()
        ctx = QueryContext.start(timeout=1e-9, token=token)
        time.sleep(0.002)
        with pytest.raises(QueryCancelledError):
            ctx.check()

    def test_skip_ledger_sorted_report(self):
        ctx = QueryContext.start(partial_ok=True)
        ctx.record_skip(2, 20, 30, OSError("later"))
        ctx.record_skip(0, 0, 10, OSError("earlier"))
        assert ctx.degraded
        report = ctx.report()
        assert report.skipped_ranges() == [(0, 10), (20, 30)]
        assert report.n_records_skipped == 20
        assert "2 shard(s) skipped" in report.summary()


# -- circuit breaker ---------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_after=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_after=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_grants_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after=0.0)
        breaker.record_failure()
        # reset_after=0: the cooldown is instantly over -> half-open.
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else refused

    def test_probe_success_closes_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after=0.0)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        # reset_after=0 advances straight back to half-open on inspection,
        # but the probe slot was re-armed: exactly one attempt again.
        assert breaker.allow()
        assert not breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after=-1.0)


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
        gate = AdmissionController(rate=1000.0, burst=2.0, max_wait_s=0.0)
        assert gate.try_admit()
        assert gate.try_admit()
        assert not gate.try_admit()  # bucket drained
        time.sleep(0.01)  # ~10 tokens refill at rate=1000/s
        assert gate.try_admit()
        for _ in range(3):
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

    def test_byte_budget_rejects_but_never_starves_a_lone_query(self):
        gate = AdmissionController(max_bytes=100, max_wait_s=0.0)
        # A lone over-budget query must still run, else it never could.
        assert gate.try_admit(nbytes=1000)
        # But alongside anything it is held back.
        assert not gate.try_admit(nbytes=50)
        gate.release(nbytes=1000)
        assert gate.try_admit(nbytes=50)
        assert gate.try_admit(nbytes=50)
        assert not gate.try_admit(nbytes=50)
        gate.release(nbytes=50)
        gate.release(nbytes=50)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(rate=0)
        with pytest.raises(ValueError):
            AdmissionController(max_wait_s=-1)
        with pytest.raises(ValueError):
            AdmissionController(max_bytes=0)


class TestRetryWithBackoff:
    def test_retries_until_success_honoring_retry_after(self):
        pauses = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise AdmissionRejectedError("busy", retry_after=0.25)
            return "ok"

        result = retry_with_backoff(
            flaky, attempts=4, base_delay=0.01, sleep=pauses.append
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert all(p >= 0.25 for p in pauses)  # hint respected

    def test_exhausted_attempts_raise_last_error(self):
        def always_busy():
            raise AdmissionRejectedError("busy", retry_after=0.0)

        with pytest.raises(AdmissionRejectedError):
            retry_with_backoff(always_busy, attempts=2, sleep=_no_sleep)

    def test_non_matching_errors_propagate_immediately(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise KeyError("nope")

        with pytest.raises(KeyError):
            retry_with_backoff(boom, attempts=5, sleep=_no_sleep)
        assert calls["n"] == 1


# -- the policy's supervised shard execution (unit level) --------------------


@pytest.mark.usefixtures("breaker_writes_hold_the_lock")
class TestResiliencePolicy:
    def test_transient_failure_is_retried_to_success(self):
        policy = ResiliencePolicy(attempts=3, sleep=_no_sleep)
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("blip")
            return "bitmap"

        assert policy.run_shard(0, 0, 10, compute, None, generation=1) == "bitmap"
        assert calls["n"] == 3

    def test_persistent_failure_raises_typed_error_with_range(self):
        policy = ResiliencePolicy(attempts=2, breaker_threshold=10, sleep=_no_sleep)

        def compute():
            raise OSError("dead")

        with pytest.raises(ShardExecutionError) as exc_info:
            policy.run_shard(3, 30, 40, compute, None, generation=1)
        err = exc_info.value
        assert (err.shard, err.start, err.stop) == (3, 30, 40)
        assert "[30:40)" in str(err)

    def test_partial_ok_records_skip_and_returns_none(self):
        policy = ResiliencePolicy(attempts=1, sleep=_no_sleep)
        ctx = QueryContext.start(partial_ok=True)

        def compute():
            raise OSError("dead")

        assert policy.run_shard(1, 10, 20, compute, ctx, generation=1) is None
        assert ctx.degraded
        assert ctx.report().skipped_ranges() == [(10, 20)]

    def test_deadline_and_cancellation_are_never_retried(self):
        policy = ResiliencePolicy(attempts=5, sleep=_no_sleep)
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            raise QueryTimeoutError("deadline", budget=0.1)

        with pytest.raises(QueryTimeoutError):
            policy.run_shard(0, 0, 10, compute, None, generation=1)
        assert calls["n"] == 1  # no retry, no breaker charge
        assert policy.breaker_states()[0] == CLOSED

    def test_breaker_opens_and_refuses_instantly(self):
        policy = ResiliencePolicy(
            attempts=1, breaker_threshold=2, breaker_reset_after=60.0, sleep=_no_sleep
        )
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            raise OSError("dead")

        for _ in range(2):
            with pytest.raises(ShardExecutionError):
                policy.run_shard(0, 0, 10, compute, None, generation=1)
        assert policy.breaker_states()[0] == OPEN
        with pytest.raises(CircuitOpenError):
            policy.run_shard(0, 0, 10, compute, None, generation=1)
        assert calls["n"] == 2  # the open breaker never ran compute again

    def test_mid_retry_breaker_opening_stops_the_retry_loop(self):
        # attempts=5 but threshold=2: the loop must stop at the second
        # failure because the breaker opened underneath it.
        policy = ResiliencePolicy(
            attempts=5, breaker_threshold=2, breaker_reset_after=60.0, sleep=_no_sleep
        )
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            raise OSError("dead")

        with pytest.raises(ShardExecutionError):
            policy.run_shard(0, 0, 10, compute, None, generation=1)
        assert calls["n"] == 2

    def test_generation_change_discards_the_breaker(self):
        policy = ResiliencePolicy(
            attempts=1, breaker_threshold=1, breaker_reset_after=60.0, sleep=_no_sleep
        )

        def compute_dead():
            raise OSError("dead")

        with pytest.raises(ShardExecutionError):
            policy.run_shard(0, 0, 10, compute_dead, None, generation=1)
        assert policy.breaker_states()[0] == OPEN
        # Same shard, new generation (the engine mutated): fresh breaker.
        assert policy.run_shard(0, 0, 10, lambda: "ok", None, generation=2) == "ok"
        assert policy.breaker_states()[0] == CLOSED

    def test_backoff_sleeps_are_capped_by_remaining_deadline(self):
        pauses = []
        policy = ResiliencePolicy(
            attempts=3, backoff_base=10.0, backoff_max=10.0,
            breaker_threshold=10, sleep=pauses.append,
        )
        ctx = QueryContext.start(timeout=0.5)

        def compute():
            raise OSError("blip")

        with pytest.raises(ShardExecutionError):
            policy.run_shard(0, 0, 10, compute, ctx, generation=1)
        assert pauses and all(p <= 0.5 for p in pauses)

    def test_each_transient_failure_is_one_retry(self):
        registry = MetricsRegistry()
        policy = ResiliencePolicy(
            attempts=3, breaker_threshold=3, sleep=_no_sleep, registry=registry
        )
        # More single blips than the breaker threshold: each success in
        # between must zero the breaker's failure streak.
        for round_ in range(1, 6):
            blip = _Flaky(fail_times=1)
            assert policy.run_shard(5, 320, 384, blip, None, generation=1) == "bitmap"
            assert blip.failures == 1 and blip.calls == 2
            assert _counts(registry) == {
                "shard_retries": round_, "shard_failures": round_,
                "breaker_refusals": 0, "shards_skipped": 0,
            }
            assert policy.breaker_states()[5] == CLOSED

    def test_dead_range_opens_its_breaker_and_counts_refusals(self):
        registry = MetricsRegistry()
        policy = ResiliencePolicy(
            attempts=1, breaker_threshold=3, breaker_reset_after=60.0,
            sleep=_no_sleep, registry=registry,
        )
        dead = _Flaky()
        for _ in range(7):
            ctx = QueryContext.start(partial_ok=True)
            assert policy.run_shard(2, 128, 192, dead, ctx, generation=1) is None
            assert ctx.report().skipped_ranges() == [(128, 192)]
        assert policy.run_shard(1, 64, 128, _Flaky(0), None, generation=1) == "bitmap"
        assert dead.failures == 3
        assert _counts(registry) == {
            "shard_retries": 0, "shard_failures": 3,
            "breaker_refusals": 4, "shards_skipped": 7,
        }
        assert policy.breaker_states() == {1: CLOSED, 2: OPEN}

    def test_concurrent_callers(self):
        from concurrent.futures import ThreadPoolExecutor

        registry = MetricsRegistry()
        policy = ResiliencePolicy(
            attempts=1, breaker_threshold=3, breaker_reset_after=60.0,
            sleep=_no_sleep, registry=registry,
        )
        n_calls = 24

        def supervise(compute):
            ctx = QueryContext.start(partial_ok=True)
            return policy.run_shard(7, 448, 512, compute, ctx, generation=1), ctx

        # Healthy: the breaker stays closed, nothing counted.
        with ThreadPoolExecutor(4) as callers:
            results = list(callers.map(supervise, [_Flaky(0)] * n_calls))
        assert all(answer == "bitmap" and not ctx.degraded for answer, ctx in results)
        assert policy.breaker_states() == {7: CLOSED}
        assert set(_counts(registry).values()) == {0}

        # Dead range: each caller either tried it once or was refused.
        dead = _Flaky()
        with ThreadPoolExecutor(4) as callers:
            results = list(callers.map(supervise, [dead] * n_calls))
        assert all(answer is None for answer, _ in results)
        assert all(ctx.report().skipped_ranges() == [(448, 512)] for _, ctx in results)
        counts = _counts(registry)
        assert counts["shards_skipped"] == n_calls
        assert counts["shard_failures"] + counts["breaker_refusals"] == n_calls
        assert counts["shard_failures"] >= 3 and dead.failures > 0
        assert counts["shard_retries"] == 0
        assert policy.breaker_states() == {7: OPEN}


# -- executor integration: worker faults under the process runner -----------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One process-mode executor (2 workers, 2 request threads, a cache)
    over the sharded engine for every worker-fault case."""
    root = tmp_path_factory.mktemp("worker-faults")
    with fi.worker_fault_executor(_sharded_engine(), root, jobs=2, cache_mb=8, workers=2) as served:
        yield served


class TestDegradedExecution:
    def test_corrupt_shard_fails_query_with_typed_error_by_default(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=2)
        fault.fail(executor.engine, 1)
        with pytest.raises(ShardExecutionError) as exc_info:
            executor.run_one(QUERY)
        err = exc_info.value
        assert err.shard == 1
        assert (err.start, err.stop) == (PER_SHARD, 2 * PER_SHARD)
        assert fault.failures == 2

    def test_engine_without_policy_wraps_first_failure(self):
        """In process, a query folds ``[0, n)`` in one call: a fault
        anywhere fails it as a whole, typed, naming every record."""
        engine = _sharded_engine()
        proxy = fi.install_faulty_shard(engine, shard=2, fail_times=None)
        with pytest.raises(ShardExecutionError) as exc_info:
            engine.query(QUERY)
        err = exc_info.value
        assert (err.shard, err.start, err.stop) == (0, 0, N_RECORDS)
        assert proxy.calls == 1

    def test_partial_ok_is_exact_on_healthy_shards(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1)
        oracle = [f"r{i:03d}" for i in range(N_RECORDS)
                  if not PER_SHARD <= i < 2 * PER_SHARD]
        fault.fail(executor.engine, 1)
        result = executor.run_one(QUERY, partial_ok=True)
        assert result.record_ids == oracle
        assert result.degraded is not None
        assert result.degraded.skipped_ranges() == [(PER_SHARD, 2 * PER_SHARD)]
        assert result.degraded.n_records_skipped == PER_SHARD
        assert fault.failures > 0

    def test_partial_ok_aggregation_reports_skipped_range(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1)
        fault.fail(executor.engine, 3)
        healthy = executor.run_one(AGG, partial_ok=True)
        assert healthy.degraded.skipped_ranges() == [(3 * PER_SHARD, N_RECORDS)]
        assert healthy.record_ids == [f"r{i:03d}" for i in range(3 * PER_SHARD)]
        assert fault.failures > 0

    def test_transient_fault_is_absorbed_by_retries(self, worker_fault):
        executor, fault = worker_fault
        registry = fi.fresh_policy(executor, attempts=3)
        fault.fail(executor.engine, 0, fail_times=2)
        result = executor.run_one(QUERY)
        assert len(result) == N_RECORDS  # complete answer, no degradation
        assert result.degraded is None
        assert fault.failures == 2
        assert registry.counter("resilience.shard_retries").value == 2

    def test_breaker_caps_attempts_across_queries(self, worker_fault):
        executor, fault = worker_fault
        registry = fi.fresh_policy(
            executor, attempts=2, breaker_threshold=2, breaker_reset_after=60.0
        )
        fault.fail(executor.engine, 1)
        for _ in range(5):
            with pytest.raises(ShardExecutionError):
                executor.run_one(QUERY)
        # The first query's two attempts opened the breaker; the other
        # four queries were refused without waiting on the range or
        # retrying it.  (Each query's batch task still carries it.)
        assert _counts(registry) == {
            "shard_retries": 1, "shard_failures": 2,
            "breaker_refusals": 4, "shards_skipped": 0,
        }
        assert executor.resilience.breaker_states()[1] == OPEN
        assert fault.failures > 0

    def test_mutation_resets_the_breaker_for_a_repaired_shard(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(
            executor, attempts=1, breaker_threshold=1, breaker_reset_after=3600.0
        )
        fault.fail(executor.engine, 1)
        with pytest.raises(ShardExecutionError):
            executor.run_one(QUERY)
        assert executor.resilience.breaker_states()[1] == OPEN
        assert fault.failures > 0
        fault.heal()
        executor.drop_all_views()
        # The mutation bumped the generation: fresh breaker, live range.
        result = executor.run_one(QUERY)
        assert len(result) == N_RECORDS and result.degraded is None

    def test_degraded_merge_is_never_cached(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1, breaker_threshold=100)
        fault.fail(executor.engine, 1)
        degraded = executor.run_one(QUERY, partial_ok=True)
        assert degraded.degraded is not None
        assert fault.failures > 0
        fault.heal()
        # Same query, same epoch: a cached degraded merge would now
        # resurface the partial answer. It must not.
        full = executor.run_one(QUERY, partial_ok=True)
        assert full.degraded is None
        assert len(full) == N_RECORDS
        assert len(degraded) == N_RECORDS - PER_SHARD

    def test_healthy_merge_is_cached_and_reused(self, worker_fault):
        executor, _ = worker_fault
        engine = executor.engine
        hits = engine.stats.cache_hits
        first = executor.run_one(QUERY, partial_ok=True)
        second = executor.run_one(QUERY, partial_ok=True)
        assert first.record_ids == second.record_ids
        assert len(first) == N_RECORDS
        assert engine.stats.cache_hits > hits


# 8 ranges of at least 64 records: the word-aligned cuts.
ALIGNED_SHARDS = 8
ALIGNED_RECORDS = 2 * 64 * ALIGNED_SHARDS + 37
SELECTIVE = GraphQuery.from_node_chain("A", "D", "F")  # every third record


def _expected_ids() -> list[str]:
    return [f"r{i:03d}" for i in range(0, ALIGNED_RECORDS, 3)]


class TestOneFoldQueries:
    """A query below the fan-out break-even folds ``[0, n)`` in one call,
    whatever the range count, and a failure of that fold is typed and
    names ``[0, n)``: there is no range of its own to retry or skip."""

    def _engine(self, shards: int) -> GraphAnalyticsEngine:
        engine = GraphAnalyticsEngine(shards=shards)
        engine.load_records(_records(ALIGNED_RECORDS))
        return engine

    @pytest.mark.parametrize("shards", [1, 8])
    def test_failure_without_a_policy_is_typed(self, shards):
        engine = self._engine(shards)
        fi.install_faulty_shard(engine, 0)
        with pytest.raises(ShardExecutionError) as info:
            engine.query(SELECTIVE)
        assert (info.value.shard, info.value.start, info.value.stop) == (0, 0, ALIGNED_RECORDS)

    @pytest.mark.parametrize("shards", [1, 8])
    def test_the_executor_policy_never_supervises_the_one_fold(self, shards):
        """Under an executor — so a default policy — and ``partial_ok``, a
        failing in-process fold is called once and raises; it is neither
        retried nor degraded."""
        engine = self._engine(shards)
        proxy = fi.install_faulty_shard(engine, 0)
        with QueryExecutor(engine) as executor:
            assert isinstance(executor.resilience, ResiliencePolicy)
            with pytest.raises(ShardExecutionError) as info:
                executor.run_one(SELECTIVE, partial_ok=True)
        assert (info.value.shard, info.value.start, info.value.stop) == (0, 0, ALIGNED_RECORDS)
        assert proxy.calls == 1
        proxy.heal()
        assert engine.query(SELECTIVE).record_ids == _expected_ids()

    @pytest.mark.parametrize("shards", [1, 8])
    @pytest.mark.parametrize("partial_ok", [False, True])
    def test_the_policy_supervises_the_one_fold(self, shards, partial_ok):
        """Handed the one fold as its compute, the policy supervises
        ``[0, n)`` as range 0: retried, typed with every record, and
        degraded to exactly ``[0, n)`` under ``partial_ok``.  Only the
        process runner hands it ranges; the in-process fold runs plain."""
        registry = MetricsRegistry()
        policy = ResiliencePolicy(attempts=2, sleep=_no_sleep, registry=registry)
        engine = self._engine(shards)
        proxy = fi.install_faulty_shard(engine, 0)
        ctx = QueryContext.start(partial_ok=partial_ok)
        refs = engine.physical_plan(SELECTIVE).refs

        def fold():
            return engine.relation.fold(refs, ctx)

        def supervise():
            return policy.run_shard(0, 0, ALIGNED_RECORDS, fold, ctx, generation=engine.epoch)

        if partial_ok:
            assert supervise() is None
            assert ctx.report().skipped_ranges() == [(0, ALIGNED_RECORDS)]
        else:
            with pytest.raises(ShardExecutionError) as info:
                supervise()
            assert (info.value.shard, info.value.start, info.value.stop) == (
                0, 0, ALIGNED_RECORDS,
            )
            assert "2 attempt(s)" in str(info.value)
        assert proxy.failures == 2
        assert _counts(registry) == {
            "shard_retries": 1, "shard_failures": 2,
            "breaker_refusals": 0, "shards_skipped": int(partial_ok),
        }
        proxy.heal()
        ids = [f"r{i:03d}" for i in supervise().to_indices()]
        assert ids == engine.query(SELECTIVE).record_ids == _expected_ids()


class TestDeadlinesAndCancellation:
    def test_deadline_cancels_within_twice_the_budget(self):
        engine = _sharded_engine()
        for shard in range(engine.n_shards):
            fi.install_faulty_shard(engine, shard, fail_times=0, delay=0.02)
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
        engine = _sharded_engine()
        token = CancelToken()
        token.cancel()
        with QueryExecutor(engine) as executor:
            results = executor.run_batch(
                [QUERY] * 4, return_errors=True, cancel=token
            )
        assert all(isinstance(r, QueryCancelledError) for r in results)

    def test_timeout_metrics_are_published(self):
        registry = MetricsRegistry()
        engine = _sharded_engine()
        with QueryExecutor(engine, registry=registry) as executor:
            with pytest.raises(QueryTimeoutError):
                executor.run_one(QUERY, timeout=1e-9)
        assert registry.counter("resilience.timeouts").value == 1


class TestBatchErrorIsolation:
    def test_one_bad_slot_does_not_poison_the_batch(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1)
        fault.fail(executor.engine, 1)
        bad = QUERY  # touches every range, including the dead one
        safe = GraphQuery.from_node_chain("A", "D")  # also touches it...
        results = executor.run_batch([bad, safe], return_errors=True, partial_ok=None)
        # Both hit the dead range -> both fail, but each failure stays in
        # its own slot as a typed error object.
        assert all(isinstance(r, ShardExecutionError) for r in results)
        assert fault.failures > 0

    def test_mixed_results_align_with_submission_order(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1, breaker_threshold=100)
        fault.fail(executor.engine, 1)
        strict = executor.run_batch([QUERY], return_errors=True)[0]
        degraded = executor.run_batch([QUERY], return_errors=True, partial_ok=True)[0]
        assert isinstance(strict, ShardExecutionError)
        assert degraded.degraded is not None
        assert fault.failures > 0

    def test_default_mode_raises_first_error_after_finishing_batch(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1)
        fault.fail(executor.engine, 1)
        with pytest.raises(ShardExecutionError):
            executor.run_batch([QUERY, QUERY])
        assert fault.failures > 0

    def test_parallel_batch_isolates_errors_too(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1, breaker_threshold=100)
        fault.fail(executor.engine, 1)
        assert executor.jobs > 1
        results = executor.run_batch([QUERY] * 8, return_errors=True)
        assert all(isinstance(r, ShardExecutionError) for r in results)
        assert fault.failures > 0

    def test_serve_streams_errors_inline(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1, breaker_threshold=100)
        fault.fail(executor.engine, 1, fail_times=2)  # transientish
        streamed = list(executor.serve([QUERY] * 3, batch_size=2, return_errors=True))
        assert len(streamed) == 3
        assert sum(isinstance(r, ShardExecutionError) for r in streamed) == 2
        assert fault.failures > 0


class TestExecutorAdmission:
    def test_rejection_is_typed_counted_and_engine_untouched(self):
        registry = MetricsRegistry()
        engine = _sharded_engine()
        gate = AdmissionController(max_inflight=1, max_wait_s=0.0)
        assert gate.try_admit()  # hold the only slot from outside
        with QueryExecutor(engine, registry=registry, admission=gate) as executor:
            with pytest.raises(AdmissionRejectedError):
                executor.run_one(QUERY)
        gate.release()
        assert registry.counter("resilience.admission_rejected").value == 1
        assert registry.counter("exec.queries_served").value == 0

    def test_admitted_queries_flow_normally(self):
        engine = _sharded_engine()
        gate = AdmissionController(max_inflight=2, max_wait_s=1.0)
        with QueryExecutor(engine, admission=gate) as executor:
            results = executor.run_batch([QUERY] * 4, return_errors=True)
        assert all(len(r) == N_RECORDS for r in results)
        assert gate.stats.admitted == 4 and gate.stats.inflight == 0

    def test_retry_with_backoff_recovers_a_rejection(self):
        engine = _sharded_engine()
        gate = AdmissionController(max_inflight=1, max_wait_s=0.0)
        assert gate.try_admit()
        with QueryExecutor(engine, admission=gate) as executor:
            attempts = {"n": 0}

            def guarded():
                attempts["n"] += 1
                if attempts["n"] == 1:
                    try:
                        return executor.run_one(QUERY)
                    finally:
                        gate.release()  # the outside holder departs
                return executor.run_one(QUERY)

            result = retry_with_backoff(guarded, attempts=3, sleep=_no_sleep)
        assert len(result) == N_RECORDS


class TestExecutorDefaults:
    def test_default_timeout_applies_when_call_says_nothing(self):
        engine = _sharded_engine()
        with QueryExecutor(engine, default_timeout=1e-9) as executor:
            with pytest.raises(QueryTimeoutError):
                executor.run_one(QUERY)
            # Per-call override wins over the default.
            assert len(executor.run_one(QUERY, timeout=30.0)) == N_RECORDS

    def test_default_partial_ok_applies(self, worker_fault):
        executor, fault = worker_fault
        fi.fresh_policy(executor, attempts=1)
        fault.fail(executor.engine, 1)
        executor.partial_ok = True
        try:
            result = executor.run_one(QUERY)
        finally:
            executor.partial_ok = False
        assert result.degraded is not None
        assert fault.failures > 0

    def test_executor_installs_a_default_policy(self):
        with QueryExecutor(_sharded_engine()) as executor:
            assert isinstance(executor.resilience, ResiliencePolicy)

    def test_executor_keeps_a_preinstalled_policy(self):
        policy = ResiliencePolicy(attempts=7, sleep=_no_sleep)
        with QueryExecutor(_sharded_engine(), resilience=policy) as executor:
            assert executor.resilience is policy


# -- CLI surfacing -----------------------------------------------------------


class TestCLIResilience:
    @pytest.fixture()
    def db(self, tmp_path):
        engine = GraphAnalyticsEngine(shards=2)
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
            "--timeout", "30", "--max-inflight", "4", "--partial-ok",
            "--limit", "2",
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
