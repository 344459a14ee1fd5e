"""Per-shard circuit breaker: stop hammering a shard that keeps failing.

A persistently corrupt shard fails every query that touches it; with
retries enabled, each of those queries would burn ``attempts`` tries plus
backoff sleeps before giving up.  The breaker caps that: after
``failure_threshold`` consecutive failures it *opens* and further
attempts are refused instantly (:class:`~repro.errors.CircuitOpenError`)
until ``reset_after`` seconds pass, at which point it goes *half-open*
and lets exactly one probe through — success closes it, failure re-opens
it for another cooldown.

The resilience policy keys breakers on ``(shard, generation)`` where the
generation is the engine's state epoch: any data mutation (an append, a
reload, a reshard) replaces the breaker, so a repaired shard is retried
immediately instead of waiting out a cooldown that no longer applies.
"""

from __future__ import annotations

import threading
import time

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic three-state breaker, thread-safe.

    ``allow()`` answers "may I attempt now?" and atomically claims the
    half-open probe slot; callers must report the outcome via
    ``record_success()`` / ``record_failure()``.  Every transition runs
    under the lock; the healthy shard's calls — ``allow()`` when CLOSED,
    ``record_success()`` with no failures — are single attribute reads
    and take none.
    """

    def __init__(self, failure_threshold: int = 3, reset_after: float = 30.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after < 0:
            raise ValueError("reset_after must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._lock = threading.Lock()
        self._failures = 0
        self._state = CLOSED
        self._opened_at = 0.0
        self._probe_claimed = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._sync_state(time.monotonic())

    def _sync_state(self, now: float) -> str:
        """Advance OPEN -> HALF_OPEN when the cooldown elapsed (call under
        the lock)."""
        if self._state == OPEN and now - self._opened_at >= self.reset_after:
            self._state = HALF_OPEN
            self._probe_claimed = False
        return self._state

    def allow(self) -> bool:
        """Whether an attempt may run now.

        In HALF_OPEN only the first caller gets True (the probe); everyone
        else is refused until the probe reports its outcome.

        A CLOSED breaker answers without the lock: ``_state`` is one
        attribute read, and nothing leaves CLOSED except
        :meth:`record_failure`, so a read that sees CLOSED linearizes
        before any transition racing it — exactly the answer the locked
        path would give at that point.
        """
        if self._state == CLOSED:
            return True
        with self._lock:
            state = self._sync_state(time.monotonic())
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probe_claimed:
                self._probe_claimed = True
                return True
            return False

    def record_success(self) -> None:
        """Close the breaker and forget its failures.

        With no failure recorded there is nothing to do, and that needs no
        lock: ``_failures`` is one attribute read, zero only while CLOSED
        with no probe claimed (every failure raises it; only this method
        zeroes it, and sets CLOSED under the lock as it does).  A failure
        racing the read linearizes after this success, as it would if the
        lock had ordered them.
        """
        if self._failures == 0:
            return
        with self._lock:
            self._failures = 0
            self._state = CLOSED
            self._probe_claimed = False

    def record_failure(self) -> None:
        with self._lock:
            now = time.monotonic()
            state = self._sync_state(now)
            self._failures += 1
            if state == HALF_OPEN or self._failures >= self.failure_threshold:
                self._state = OPEN
                self._opened_at = now
                self._probe_claimed = False
