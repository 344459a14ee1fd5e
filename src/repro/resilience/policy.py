"""The record-range resilience policy: retry, breaker, degraded mode.

This is the supervision layer of the process runner
(:class:`~repro.exec.runners.ProcessRunner`): a query that fans out to
worker processes has record ranges that can fail on their own, and the
runner supervises each of them with the policy of its
:class:`~repro.exec.QueryExecutor` (a default one unless the caller
passes its own).  An in-process fold is never supervised: it has no range
of its own to retry or skip.  For each range fold the policy:

1. consults the range's **circuit breaker** — open means the range is not
   attempted at all (:class:`~repro.errors.CircuitOpenError`);
2. runs the computation, **retrying with exponential backoff** up to
   ``attempts`` times on storage-level failures (never on deadline /
   cancellation, which must propagate immediately, and never past the
   query's remaining deadline);
3. on persistent failure, either raises a typed
   :class:`~repro.errors.ShardExecutionError` naming the range, or — when
   the query's context says ``partial_ok`` — records the skipped range on
   the :class:`~repro.resilience.QueryContext` and lets the caller
   substitute an empty segment, producing an exact answer over the
   healthy ranges plus a :class:`~repro.resilience.DegradedReport`.

Breakers are keyed on ``(range index, generation)`` with the engine epoch
as the generation: any mutation (append, reload, reshard) discards the
old breaker, so a repaired range is probed immediately.

Every decision publishes a ``resilience.*`` counter when a metrics
registry is attached (the executor attaches its own).
"""

from __future__ import annotations

import threading
import time

from ..errors import (
    CircuitOpenError,
    ResilienceError,
    ShardExecutionError,
)
from .breaker import CircuitBreaker
from .context import QueryContext

__all__ = ["ResiliencePolicy"]


class ResiliencePolicy:
    """Retry/breaker/degraded-mode configuration for shard execution.

    Parameters
    ----------
    attempts:
        Total tries per shard task per query (1 = no retries).
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff between retries, in seconds.  Sleeps are
        capped by the query's remaining deadline.
    breaker_threshold / breaker_reset_after:
        Consecutive failures that open a shard's circuit breaker, and the
        cooldown before a half-open probe.
    registry:
        Optional :class:`repro.obs.MetricsRegistry` for ``resilience.*``
        counters; a :class:`~repro.exec.QueryExecutor` installs its own.
    """

    def __init__(
        self,
        attempts: int = 3,
        backoff_base: float = 0.02,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.5,
        breaker_threshold: int = 3,
        breaker_reset_after: float = 30.0,
        registry=None,
        sleep=time.sleep,
    ):
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.attempts = attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_after = breaker_reset_after
        self.registry = registry
        self._sleep = sleep
        self._lock = threading.Lock()
        # shard index -> (generation, breaker); replaced when the engine
        # epoch moves past the stored generation.
        self._breakers: dict[int, tuple[int, CircuitBreaker]] = {}

    # -- metrics -------------------------------------------------------------

    def _count(self, name: str, n: float = 1) -> None:
        registry = self.registry
        if registry is not None:
            registry.counter(name).inc(n)

    # -- breakers ------------------------------------------------------------

    def breaker_for(self, shard: int, generation: int) -> CircuitBreaker:
        """The shard's breaker at this generation (fresh when the
        generation moved — a mutation may have repaired the shard)."""
        with self._lock:
            held = self._breakers.get(shard)
            if held is not None and held[0] == generation:
                return held[1]
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                reset_after=self.breaker_reset_after,
            )
            self._breakers[shard] = (generation, breaker)
            return breaker

    def breaker_states(self) -> dict[int, str]:
        """Current breaker state per shard (for introspection/tests)."""
        with self._lock:
            return {shard: b.state for shard, (_, b) in self._breakers.items()}

    # -- supervised shard execution ------------------------------------------

    def _give_up(
        self,
        error: ShardExecutionError,
        ctx: QueryContext | None,
        shard: int,
        start: int,
        stop: int,
    ):
        """Terminal failure: degrade (returning None) or raise."""
        if ctx is not None and ctx.partial_ok:
            ctx.record_skip(shard, start, stop, error)
            self._count("resilience.shards_skipped")
            return None
        raise error

    def run_shard(
        self,
        shard: int,
        start: int,
        stop: int,
        compute,
        ctx: QueryContext | None,
        generation: int,
    ):
        """Run one shard task under the policy.

        Returns ``compute()``'s bitmap, or **None** when the shard was
        skipped under ``partial_ok`` (the caller substitutes an all-zero
        segment and must not cache the merged result).  Deadline and
        cancellation errors always propagate unchanged.
        """
        breaker = self.breaker_for(shard, generation)
        if not breaker.allow():
            self._count("resilience.breaker_refusals")
            return self._give_up(
                CircuitOpenError(
                    f"shard {shard} circuit breaker is open "
                    f"(records [{start}:{stop}) unavailable)",
                    shard=shard,
                    start=start,
                    stop=stop,
                ),
                ctx,
                shard,
                start,
                stop,
            )
        delay = self.backoff_base
        last: Exception | None = None
        for attempt in range(self.attempts):
            if ctx is not None:
                ctx.check()
            try:
                result = compute()
            except ResilienceError:
                # Deadline/cancellation (or a nested typed failure): not a
                # storage fault — never retried, never charged to the breaker.
                raise
            except Exception as exc:
                last = exc
                breaker.record_failure()
                self._count("resilience.shard_failures")
                if attempt + 1 == self.attempts or not breaker.allow():
                    break
                self._count("resilience.shard_retries")
                pause = min(delay, self.backoff_max)
                if ctx is not None and ctx.deadline is not None:
                    remaining = ctx.deadline.remaining()
                    if remaining <= 0:
                        ctx.check()
                    pause = min(pause, remaining)
                if pause > 0:
                    self._sleep(pause)
                delay *= self.backoff_factor
            else:
                breaker.record_success()
                return result
        return self._give_up(
            ShardExecutionError(
                f"shard {shard} failed after {self.attempts} attempt(s): {last} "
                f"(records [{start}:{stop}) unavailable)",
                shard=shard,
                start=start,
                stop=stop,
            ),
            ctx,
            shard,
            start,
            stop,
        )
