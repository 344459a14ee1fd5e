"""Per-query execution context: deadlines and cancellation.

A :class:`QueryContext` rides along with one query through the executor,
the engine facade, and the operator layer.  It carries two things:

* a :class:`Deadline` — cooperative wall-clock budget, checked at operator
  boundaries (every conjunction-fold step, every measure gather),
  raising :class:`~repro.errors.QueryTimeoutError` when expired;
* a :class:`CancelToken` — external cancellation, checked at the same
  boundaries, raising :class:`~repro.errors.QueryCancelledError`; one
  token may be shared by a whole batch so a single ``cancel()`` stops
  every in-flight and queued query.

Checks are cooperative on purpose: the word-level numpy kernels cannot be
interrupted mid-call, so a deadline of D seconds is honoured within D plus
one operator step (the acceptance bound is 2·D for realistic column sizes).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..errors import QueryCancelledError, QueryTimeoutError

__all__ = ["Deadline", "CancelToken", "QueryContext"]


@dataclass(frozen=True)
class Deadline:
    """A monotonic-clock expiry for one query.

    Build with :meth:`after`; ``check()`` raises
    :class:`~repro.errors.QueryTimeoutError` once the budget is spent.
    """

    expires_at: float
    budget: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        if seconds <= 0:
            raise ValueError("deadline budget must be > 0 seconds")
        return cls(expires_at=time.monotonic() + seconds, budget=seconds)

    def remaining(self) -> float:
        """Seconds left (clamped at 0.0)."""
        return max(self.expires_at - time.monotonic(), 0.0)

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        if self.expired():
            raise QueryTimeoutError(
                f"query deadline of {self.budget:g}s exceeded", budget=self.budget
            )


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    One token may be shared across a batch: the executor checks it before
    starting each queued query, the storage fold before every ref and the
    interpreter before every measure gather, so ``cancel()`` stops both
    queued and in-flight work at the next boundary.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise QueryCancelledError("query cancelled")


@dataclass
class QueryContext:
    """Everything one query carries through the stack.

    ``deadline`` / ``token`` may be None (no budget / not cancellable).
    """

    deadline: Deadline | None = None
    token: CancelToken | None = None

    @classmethod
    def start(
        cls,
        timeout: float | None = None,
        token: CancelToken | None = None,
        partial_ok: bool = False,
    ) -> "QueryContext":
        """Fresh context with the clock starting now.  ``partial_ok`` is
        accepted and ignored: the frozen benchmark's replay still passes
        ``partial_ok=False`` (``benchmarks/e2e/layers.py:202``)."""
        deadline = Deadline.after(timeout) if timeout else None
        return cls(deadline=deadline, token=token)

    def check(self) -> None:
        """Raise the typed error if cancelled or past the deadline.

        Cancellation wins when both fired: it is the caller's explicit
        decision, so reporting it is more actionable than the timeout.
        """
        if self.token is not None:
            self.token.check()
        if self.deadline is not None:
            self.deadline.check()
