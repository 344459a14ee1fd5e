"""A small bounded memo shared by the query front-end and the planner.

Both memoize pure functions of a query (text → lowered query, query →
physical plan) for a daemon that may see arbitrarily many distinct
queries, so both need a bound; planners run concurrently under the
executor's read lock, so the memo takes its own lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["MEMO_SIZE", "BoundedMemo"]

# Entries each memo keeps: above the distinct-query count of every
# benchmark workload (512 for ``narrow_fold``), small beside a daemon's RSS.
MEMO_SIZE = 1024


class BoundedMemo:
    """Least-recently-used map of at most :data:`MEMO_SIZE` entries (read
    at construction).  ``None`` is never stored: it means a miss."""

    def __init__(self) -> None:
        self._size = MEMO_SIZE
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self._size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        # Under the lock: put() holds one entry over the bound until it
        # evicts, which an unlocked read can observe.
        with self._lock:
            return len(self._entries)
