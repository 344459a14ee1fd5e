"""Resilient-serving tests: deadlines, cancellation, admission, degraded mode.

Covers the governance layer end to end: the context primitives
(:class:`Deadline` / :class:`CancelToken` / :class:`QueryContext`), the
admission gate, the retry helper, the per-shard circuit breaker, the
resilience policy's supervised shard execution, and the integration
through :class:`QueryExecutor` / the engine facade / the CLI — including
the acceptance contracts: a corrupt shard yields a typed error by
default, ``partial_ok`` answers are exact on healthy shards with accurate
skipped record ranges, the breaker caps retry storms, a deadline of D
cancels within 2·D, and degraded merges never poison the cache.
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
from repro.core.engine import range_tasks
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


def _sharded_engine(**policy_kw) -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine(shards=N_SHARDS)
    engine.load_records(_records())
    if policy_kw:
        engine.use_resilience(ResiliencePolicy(**policy_kw))
    return engine


QUERY = GraphQuery.from_node_chain("A", "D", "E")
AGG = PathAggregationQuery(GraphQuery.from_node_chain("A", "D", "E"), "sum")


def _no_sleep(_seconds: float) -> None:
    """Injectable sleep that never actually waits (keeps tests fast)."""


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


# -- engine + executor integration with injected shard faults ----------------


@pytest.mark.usefixtures("fan_out")
class TestDegradedExecution:
    def test_corrupt_shard_fails_query_with_typed_error_by_default(self):
        engine = _sharded_engine(attempts=2, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine) as executor:
            with pytest.raises(ShardExecutionError) as exc_info:
                executor.run_one(QUERY)
        err = exc_info.value
        assert err.shard == 1
        assert (err.start, err.stop) == (PER_SHARD, 2 * PER_SHARD)

    def test_engine_without_policy_wraps_first_failure(self):
        engine = _sharded_engine()  # no policy installed
        fi.install_faulty_shard(engine, shard=2, fail_times=None)
        with pytest.raises(ShardExecutionError) as exc_info:
            engine.query(QUERY)
        assert exc_info.value.shard == 2

    def test_partial_ok_is_exact_on_healthy_shards(self):
        engine = _sharded_engine(attempts=1, sleep=_no_sleep)
        oracle = [f"r{i:03d}" for i in range(N_RECORDS)
                  if not PER_SHARD <= i < 2 * PER_SHARD]
        proxy = fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine) as executor:
            result = executor.run_one(QUERY, partial_ok=True)
        assert result.record_ids == oracle
        assert result.degraded is not None
        assert result.degraded.skipped_ranges() == [(PER_SHARD, 2 * PER_SHARD)]
        assert result.degraded.n_records_skipped == PER_SHARD
        assert proxy.failures > 0

    def test_partial_ok_aggregation_reports_skipped_range(self):
        engine = _sharded_engine(attempts=1, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=3, fail_times=None)
        with QueryExecutor(engine) as executor:
            healthy = executor.run_one(AGG, partial_ok=True)
        assert healthy.degraded.skipped_ranges() == [(3 * PER_SHARD, N_RECORDS)]
        assert all(not rid.startswith("r03") for rid in healthy.record_ids)

    def test_transient_fault_is_absorbed_by_retries(self):
        registry = MetricsRegistry()
        engine = _sharded_engine(attempts=3, sleep=_no_sleep)
        engine.use_metrics(registry)
        proxy = fi.install_faulty_shard(engine, shard=0, fail_times=2)
        with QueryExecutor(engine) as executor:
            result = executor.run_one(QUERY)
        assert len(result) == N_RECORDS  # complete answer, no degradation
        assert result.degraded is None
        assert proxy.failures == 2
        assert registry.counter("resilience.shard_retries").value >= 2

    def test_breaker_caps_attempts_across_queries(self):
        engine = _sharded_engine(
            attempts=1, breaker_threshold=2, breaker_reset_after=60.0,
            sleep=_no_sleep,
        )
        proxy = fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine) as executor:
            for _ in range(5):
                with pytest.raises(ShardExecutionError):
                    executor.run_one(QUERY)
        # Two real attempts opened the breaker; the other three queries
        # were refused without touching the shard.
        assert proxy.failures == 2
        assert engine.resilience.breaker_states()[1] == OPEN

    def test_mutation_resets_the_breaker_for_a_repaired_shard(self):
        engine = _sharded_engine(
            attempts=1, breaker_threshold=1, breaker_reset_after=3600.0,
            sleep=_no_sleep,
        )
        proxy = fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine) as executor:
            with pytest.raises(ShardExecutionError):
                executor.run_one(QUERY)
            assert engine.resilience.breaker_states()[1] == OPEN
            proxy.heal()
            executor.append_records(
                [GraphRecord("r-new", {("A", "D"): 1.0, ("D", "E"): 2.0})]
            )
            # The append bumped the generation: fresh breaker, live shard.
            result = executor.run_one(QUERY)
        assert len(result) == N_RECORDS + 1

    def test_degraded_merge_is_never_cached(self):
        engine = _sharded_engine(attempts=1, breaker_threshold=100, sleep=_no_sleep)
        proxy = fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine, cache_mb=8) as executor:
            degraded = executor.run_one(QUERY, partial_ok=True)
            assert degraded.degraded is not None
            proxy.heal()
            # Same query, same epoch: a cached degraded merge would now
            # resurface the partial answer. It must not.
            full = executor.run_one(QUERY, partial_ok=True)
        assert full.degraded is None
        assert len(full) == N_RECORDS
        assert len(degraded) == N_RECORDS - PER_SHARD

    def test_healthy_merge_is_cached_and_reused(self):
        engine = _sharded_engine()
        with QueryExecutor(engine, cache_mb=8) as executor:
            first = executor.run_one(QUERY, partial_ok=True)
            second = executor.run_one(QUERY, partial_ok=True)
        assert first.record_ids == second.record_ids
        assert engine.stats.cache_hits > 0


# 8 shards of at least 64 records: the word-aligned cuts.
ALIGNED_SHARDS = 8
ALIGNED_RECORDS = 2 * 64 * ALIGNED_SHARDS + 37
SELECTIVE = GraphQuery.from_node_chain("A", "D", "F")  # every third record


def _aligned_engine(registry, **policy_kw) -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine(shards=ALIGNED_SHARDS)
    engine.load_records(_records(ALIGNED_RECORDS))
    engine.use_resilience(ResiliencePolicy(sleep=_no_sleep, **policy_kw))
    engine.use_metrics(registry)
    return engine


def _expected_ids(skipped: tuple[int, int] = (0, 0)) -> list[str]:
    lo, hi = skipped
    return [f"r{i:03d}" for i in range(0, ALIGNED_RECORDS, 3) if not lo <= i < hi]


def _counts(registry) -> dict[str, float]:
    names = ("shard_retries", "shard_failures", "breaker_refusals", "shards_skipped")
    return {n: registry.counter(f"resilience.{n}").value for n in names}


@pytest.fixture
def breaker_writes_hold_the_lock(monkeypatch):
    """Every write to a breaker's state after construction must happen
    under its lock: the lock-free reads are only sound if they are."""
    unlocked = []

    def checked(self, name, value):
        if name in vars(self) and not self._lock.locked():
            unlocked.append(name)
        object.__setattr__(self, name, value)

    monkeypatch.setattr(CircuitBreaker, "__setattr__", checked)
    yield
    assert not unlocked, f"breaker state written without its lock: {unlocked}"


@pytest.mark.usefixtures("breaker_writes_hold_the_lock", "fan_out")
class TestLockFreeSupervision:
    """The healthy shard's supervision takes no lock (breaker lookup,
    ``allow``, ``record_success``); every failure path must stay exactly
    as counted and as locked as before, at the word-aligned geometry."""

    def test_cuts_are_word_aligned(self):
        engine = _aligned_engine(MetricsRegistry())
        tasks = range_tasks(engine.n_records, engine.n_shards)
        assert len(tasks) == ALIGNED_SHARDS
        assert all(start % 64 == 0 for _, start, _ in tasks)

    def test_each_transient_failure_is_one_retry(self):
        registry = MetricsRegistry()
        engine = _aligned_engine(registry, attempts=3, breaker_threshold=3)
        # More single blips than the breaker threshold: each success in
        # between must zero the breaker's failure streak.
        for round_ in range(1, 6):
            proxy = fi.install_faulty_shard(engine, shard=5, fail_times=1)
            result = engine.query(SELECTIVE)
            assert result.record_ids == _expected_ids()
            assert result.degraded is None
            assert proxy.failures == 1 and proxy.calls == 2
            assert _counts(registry) == {
                "shard_retries": round_, "shard_failures": round_,
                "breaker_refusals": 0, "shards_skipped": 0,
            }
            assert engine.resilience.breaker_states()[5] == CLOSED
            proxy.remove()

    def test_dead_shard_opens_its_breaker_and_refusals_are_counted(self):
        registry = MetricsRegistry()
        engine = _aligned_engine(
            registry, attempts=1, breaker_threshold=3, breaker_reset_after=60.0
        )
        proxy = fi.install_faulty_shard(engine, shard=2, fail_times=None)
        skipped = fi.shard_range(engine, 2)
        assert skipped[0] % 64 == 0 and skipped[1] % 64 == 0
        for _ in range(7):
            result = engine.query(SELECTIVE, ctx=QueryContext.start(partial_ok=True))
            assert result.record_ids == _expected_ids(skipped)
            assert result.degraded.skipped_ranges() == [skipped]
        assert proxy.failures == 3
        assert _counts(registry) == {
            "shard_retries": 0, "shard_failures": 3,
            "breaker_refusals": 4, "shards_skipped": 7,
        }
        assert engine.resilience.breaker_states()[2] == OPEN
        assert engine.resilience.breaker_states()[1] == CLOSED

    def test_concurrent_queries_on_a_shard_thread_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.exec.runners import ThreadRunner

        registry = MetricsRegistry()
        engine = _aligned_engine(
            registry, attempts=1, breaker_threshold=3, breaker_reset_after=60.0
        )
        runner = ThreadRunner(4)
        engine.use_shard_runner(runner)
        n_queries = 24

        def degraded(_):
            return engine.query(SELECTIVE, ctx=QueryContext.start(partial_ok=True))

        try:
            # Healthy: every shard's breaker stays closed, nothing counted.
            with ThreadPoolExecutor(4) as clients:
                results = list(clients.map(degraded, range(n_queries)))
            assert all(r.record_ids == _expected_ids() for r in results)
            assert all(r.degraded is None for r in results)
            assert set(engine.resilience.breaker_states().values()) == {CLOSED}
            assert set(_counts(registry).values()) == {0}

            # Dead shard: each query either tried it once or was refused.
            proxy = fi.install_faulty_shard(engine, shard=7, fail_times=None)
            skipped = fi.shard_range(engine, 7)
            with ThreadPoolExecutor(4) as clients:
                results = list(clients.map(degraded, range(n_queries)))
        finally:
            runner.close()
        assert all(r.record_ids == _expected_ids(skipped) for r in results)
        assert all(r.degraded.skipped_ranges() == [skipped] for r in results)
        counts = _counts(registry)
        assert counts["shards_skipped"] == n_queries
        assert counts["shard_failures"] + counts["breaker_refusals"] == n_queries
        assert counts["shard_failures"] >= 3 and proxy.failures > 0
        assert counts["shard_retries"] == 0
        assert engine.resilience.breaker_states()[7] == OPEN


class TestOneFoldQueries:
    """A query below the fan-out break-even folds ``[0, n)`` in one call,
    whatever the range count, and that fold is supervised as range 0:
    typed on failure, retried and breaker-guarded under a policy, and
    degraded to exactly ``[0, n)`` under ``partial_ok``."""

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
    @pytest.mark.parametrize("partial_ok", [False, True])
    def test_the_policy_supervises_the_one_fold(self, shards, partial_ok):
        registry = MetricsRegistry()
        engine = self._engine(shards)
        engine.use_resilience(ResiliencePolicy(attempts=2, sleep=_no_sleep))
        engine.use_metrics(registry)
        proxy = fi.install_faulty_shard(engine, 0)
        ctx = QueryContext.start(partial_ok=partial_ok)
        if partial_ok:
            result = engine.query(SELECTIVE, ctx=ctx)
            assert result.record_ids == []
            assert result.degraded.skipped_ranges() == [(0, ALIGNED_RECORDS)]
        else:
            with pytest.raises(ShardExecutionError) as info:
                engine.query(SELECTIVE, ctx=ctx)
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
        assert engine.query(SELECTIVE).record_ids == _expected_ids()


@pytest.mark.usefixtures("fan_out")
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
    def test_one_bad_slot_does_not_poison_the_batch(self):
        engine = _sharded_engine(attempts=1, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=1, fail_times=None)
        bad = QUERY  # touches every shard, including the dead one
        safe = GraphQuery.from_node_chain("A", "D")  # also touches it...
        with QueryExecutor(engine) as executor:
            results = executor.run_batch(
                [bad, safe], return_errors=True, partial_ok=None
            )
        # Both hit the dead shard -> both fail, but each failure stays in
        # its own slot as a typed error object.
        assert all(isinstance(r, ShardExecutionError) for r in results)

    def test_mixed_results_align_with_submission_order(self):
        engine = _sharded_engine(attempts=1, breaker_threshold=100, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine) as executor:
            strict = executor.run_batch([QUERY], return_errors=True)[0]
            degraded = executor.run_batch(
                [QUERY], return_errors=True, partial_ok=True
            )[0]
        assert isinstance(strict, ShardExecutionError)
        assert degraded.degraded is not None

    def test_default_mode_raises_first_error_after_finishing_batch(self):
        engine = _sharded_engine(attempts=1, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine) as executor:
            with pytest.raises(ShardExecutionError):
                executor.run_batch([QUERY, QUERY])

    def test_parallel_batch_isolates_errors_too(self):
        engine = _sharded_engine(attempts=1, breaker_threshold=100, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine, jobs=4) as executor:
            results = executor.run_batch([QUERY] * 8, return_errors=True)
        assert all(isinstance(r, ShardExecutionError) for r in results)

    def test_serve_streams_errors_inline(self):
        engine = _sharded_engine(attempts=1, breaker_threshold=100, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=1, fail_times=2)  # transientish
        with QueryExecutor(engine) as executor:
            streamed = list(
                executor.serve([QUERY] * 3, batch_size=2, return_errors=True)
            )
        assert len(streamed) == 3


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

    def test_default_partial_ok_applies(self):
        engine = _sharded_engine(attempts=1, sleep=_no_sleep)
        fi.install_faulty_shard(engine, shard=1, fail_times=None)
        with QueryExecutor(engine, partial_ok=True) as executor:
            result = executor.run_one(QUERY)
        assert result.degraded is not None

    def test_executor_installs_a_default_policy(self):
        engine = _sharded_engine()
        assert engine.resilience is None
        with QueryExecutor(engine):
            assert engine.resilience is not None

    def test_executor_keeps_a_preinstalled_policy(self):
        engine = _sharded_engine(attempts=7, sleep=_no_sleep)
        policy = engine.resilience
        with QueryExecutor(engine):
            assert engine.resilience is policy


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
