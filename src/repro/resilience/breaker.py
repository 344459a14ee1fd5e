"""Per-range circuit breaker: stop hammering a record range that keeps failing.

A record range whose worker fold persistently fails fails every query
that fans out over it; with retries enabled, each of those queries would
burn ``attempts`` tries plus backoff sleeps before giving up.  The breaker caps that: after
``failure_threshold`` consecutive failures it *opens* and further
attempts are refused instantly (:class:`~repro.errors.CircuitOpenError`)
until ``reset_after`` seconds pass, at which point it goes *half-open*
and lets exactly one probe through — success closes it, failure re-opens
it for another cooldown.

The resilience policy, which the process runner consults for every range
it fans out, keys breakers on ``(range index, generation)`` where the
generation is the engine's state epoch: any data mutation (an append, a
reload, a reshard) replaces the breaker, so a repaired range is retried
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
    ``record_success()`` / ``record_failure()``.  Every call runs under
    the lock.
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
        """
        with self._lock:
            state = self._sync_state(time.monotonic())
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probe_claimed:
                self._probe_claimed = True
                return True
            return False

    def record_success(self) -> None:
        """Close the breaker and forget its failures."""
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
