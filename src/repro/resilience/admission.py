"""Admission control: the gate in front of the query executor.

Production serving needs to shed load *before* work starts, not after it
has stalled every other query.  :class:`AdmissionController` combines the
three classic gates behind one blocking-with-bounded-wait ``admit()``:

* **concurrent-query cap** (``max_inflight``) — at most N queries execute
  at once; excess callers queue;
* **token bucket** (``rate`` / ``burst``) — sustained throughput is capped
  at ``rate`` admissions/second with bursts up to ``burst``;
* **byte budget** (``max_bytes``) — callers declare an estimated working
  set (the executor estimates one bitmap width per conjunction) and the
  summed estimate of in-flight queries stays under the budget.

A caller waits at most ``max_wait_s`` for all three gates to open; past
that the query is *rejected* with a typed
:class:`~repro.errors.AdmissionRejectedError` carrying a ``retry_after``
hint, which :func:`repro.resilience.retry_with_backoff` knows how to obey.
Rejection is deliberate back-pressure: a bounded queue plus a typed error
beats an unbounded queue plus a timeout storm.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import AdmissionRejectedError

__all__ = ["AdmissionController", "AdmissionStats"]


@dataclass
class AdmissionStats:
    """Point-in-time counters of one :class:`AdmissionController`."""

    admitted: int = 0
    rejected: int = 0
    inflight: int = 0
    bytes_inflight: int = 0


class AdmissionController:
    """Token-bucket + inflight/byte-budget admission gate.

    Parameters
    ----------
    max_inflight:
        Maximum concurrently admitted queries (None = unlimited).
    rate:
        Sustained admissions per second for the token bucket (None = no
        rate limit).
    burst:
        Bucket capacity; defaults to ``max(rate, 1)`` so a idle bucket
        admits about one second of traffic instantly.
    max_wait_s:
        How long ``admit()`` may queue before rejecting (0 = reject
        immediately when a gate is closed).
    max_bytes:
        Budget for the summed byte estimates of in-flight queries
        (None = no byte gate).  A single query estimated above the whole
        budget is still admitted when it is alone — otherwise it could
        never run.
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        rate: float | None = None,
        burst: float | None = None,
        max_wait_s: float = 0.0,
        max_bytes: int | None = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be > 0")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self.max_inflight = max_inflight
        self.rate = rate
        self.burst = float(burst) if burst is not None else max(rate or 1.0, 1.0)
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        self.max_wait_s = max_wait_s
        self.max_bytes = max_bytes
        self._cond = threading.Condition()
        self._inflight = 0
        self._bytes_inflight = 0
        self._tokens = self.burst
        self._refilled_at = time.monotonic()
        self._admitted = 0
        self._rejected = 0

    # -- token bucket (call under lock) --------------------------------------

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        self._tokens = min(
            self.burst, self._tokens + (now - self._refilled_at) * self.rate
        )
        self._refilled_at = now

    def _token_wait(self, now: float) -> float:
        """Seconds until one token is available (0.0 = available now)."""
        if self.rate is None:
            return 0.0
        self._refill(now)
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate

    # -- gate ----------------------------------------------------------------

    def _gates_closed(self, nbytes: int, now: float) -> float | None:
        """Why admission must wait: seconds until the earliest possible
        retry, or None when every gate is open right now."""
        token_wait = self._token_wait(now)
        if token_wait > 0:
            return token_wait
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            return float("inf")  # opens when some query finishes
        if (
            self.max_bytes is not None
            and self._inflight > 0
            and self._bytes_inflight + nbytes > self.max_bytes
        ):
            return float("inf")
        return None

    def _acquire(self, nbytes: int) -> None:
        give_up_at = time.monotonic() + self.max_wait_s
        with self._cond:
            while True:
                now = time.monotonic()
                wait = self._gates_closed(nbytes, now)
                if wait is None:
                    if self.rate is not None:
                        self._tokens -= 1.0
                    self._inflight += 1
                    self._bytes_inflight += nbytes
                    self._admitted += 1
                    return
                budget = give_up_at - now
                # A finite wait longer than the remaining budget can never
                # succeed; an infinite one opens on a release notify, so it
                # is worth waiting out the budget.
                if budget <= 0 or (wait != float("inf") and wait > budget):
                    self._rejected += 1
                    hint = min(wait, 1.0) if wait != float("inf") else 0.1
                    raise AdmissionRejectedError(
                        "admission rejected: "
                        + (
                            "token bucket empty"
                            if wait != float("inf")
                            else f"{self._inflight} queries in flight, "
                            f"{self._bytes_inflight} bytes held"
                        )
                        + f" (waited up to {self.max_wait_s:g}s)",
                        retry_after=hint,
                    )
                # Condition.wait wakes on notify (a release) or timeout (a
                # token refill becoming due), whichever is sooner.
                self._cond.wait(timeout=min(wait, budget))

    def _release(self, nbytes: int) -> None:
        with self._cond:
            self._inflight -= 1
            self._bytes_inflight -= nbytes
            self._cond.notify_all()

    @contextmanager
    def admit(self, nbytes: int = 0) -> Iterator[None]:
        """Run one query inside the gate; raises
        :class:`~repro.errors.AdmissionRejectedError` when the gates stay
        closed past the bounded wait."""
        self._acquire(nbytes)
        try:
            yield
        finally:
            self._release(nbytes)

    def try_admit(self, nbytes: int = 0) -> bool:
        """Non-blocking probe: admit now or return False (never queues).
        A failed probe is not a rejection and counts nothing: its caller
        may go on to wait in :meth:`admit`.  The caller must
        :meth:`release` what it admitted."""
        with self._cond:
            if self._gates_closed(nbytes, time.monotonic()) is not None:
                return False
            if self.rate is not None:
                self._tokens -= 1.0
            self._inflight += 1
            self._bytes_inflight += nbytes
            self._admitted += 1
            return True

    def release(self, nbytes: int = 0) -> None:
        """Release a :meth:`try_admit` admission."""
        self._release(nbytes)

    @property
    def stats(self) -> AdmissionStats:
        with self._cond:
            return AdmissionStats(
                admitted=self._admitted,
                rejected=self._rejected,
                inflight=self._inflight,
                bytes_inflight=self._bytes_inflight,
            )
