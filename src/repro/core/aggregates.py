"""Aggregate functions for path aggregation (Sections 3.4, 5.1.2).

A path-aggregation query consolidates the measures along a path with a
user-defined function ``F`` (SUM, MAX, …).  Two properties matter for view
materialization:

* **Distributive** functions (SUM, MIN, MAX, COUNT) can be applied to
  pre-aggregated sub-paths directly: ``SUM(p1 ⋈ p2) = SUM(SUM p1, SUM p2)``.
* **Algebraic** functions (AVG) are not, but decompose into a bounded set of
  distributive *sub-aggregates* (sum, count) from which the final value is
  computed — so an aggregate graph view for AVG stores those instead
  (Section 5.1.2).

Functions combine *element-wise across path elements* for a whole column of
records at a time: inputs are float64 arrays of shape ``(n_records,)`` (one
per path element, NaN = NULL), outputs the same shape.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["AggregateFunction", "get_function", "register_function", "FUNCTIONS"]


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    if not arrays:
        raise ValueError("need at least one array to aggregate")
    return np.vstack([np.asarray(a, dtype=np.float64) for a in arrays])


def _sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Left to right in path order, NULL (NaN) as 0: a record's sum does
    not depend on how many records are combined with it (``nansum`` over
    one row sums pairwise, over several it goes row by row)."""
    if not arrays:
        raise ValueError("need at least one array to aggregate")
    total = np.zeros(np.shape(arrays[0]))
    for values in arrays:
        values = np.asarray(values, dtype=np.float64)
        total += np.where(np.isnan(values), 0.0, values)
    return total


def _min(arrays: Sequence[np.ndarray]) -> np.ndarray:
    stacked = _stack(arrays)
    with np.errstate(invalid="ignore"):
        out = np.nanmin(stacked, axis=0)
    return out


def _max(arrays: Sequence[np.ndarray]) -> np.ndarray:
    stacked = _stack(arrays)
    with np.errstate(invalid="ignore"):
        out = np.nanmax(stacked, axis=0)
    return out


def _count(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.sum(~np.isnan(_stack(arrays)), axis=0).astype(np.float64)


def _avg_finalize(sub: dict[str, np.ndarray]) -> np.ndarray:
    total, count = sub["sum"], sub["count"]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(count > 0, total / count, np.nan)
    return out


def _identity_lift(values: np.ndarray) -> np.ndarray:
    return values


def _presence_lift(values: np.ndarray) -> np.ndarray:
    """Lift raw measures into COUNT's partial space: 1 where present."""
    return (~np.isnan(np.asarray(values, dtype=np.float64))).astype(np.float64)


@dataclass(frozen=True)
class AggregateFunction:
    """A named aggregate with its combination semantics.

    ``combine`` folds measure arrays of a path's elements into one array.
    For distributive functions, ``combine`` is also how pre-aggregated view
    columns merge with raw measure columns.  Algebraic functions list their
    ``sub_aggregates`` (distributive function names) and a ``finalize`` that
    turns named sub-aggregate arrays into the final value.

    Two extra hooks support composing *partial* aggregates (view columns)
    with raw measures, as view-based rewriting requires:

    * ``merger`` — name of the function that merges partials of this
      function (COUNT partials merge with SUM; everything else with
      itself).
    * ``lift`` — maps a raw measure array into this function's partial
      space (identity except COUNT, where a present measure lifts to 1).
    """

    name: str
    combine: "callable"
    distributive: bool = True
    sub_aggregates: tuple[str, ...] = field(default_factory=tuple)
    finalize: "callable | None" = None
    merger: str = ""
    lift: "callable" = _identity_lift

    def is_algebraic(self) -> bool:
        return not self.distributive

    def merge_partials(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Merge partial aggregates (view columns and lifted raw values)."""
        merger = self.merger or self.name
        return FUNCTIONS[merger].combine(arrays)

    def __call__(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        return self.combine(arrays)


FUNCTIONS: dict[str, AggregateFunction] = {}


def register_function(function: AggregateFunction) -> None:
    """Add a user-defined aggregate to the registry."""
    key = function.name.lower()
    if key in FUNCTIONS:
        raise ValueError(f"aggregate function {key!r} already registered")
    FUNCTIONS[key] = function


def get_function(name: str) -> AggregateFunction:
    """Look up an aggregate by name (case-insensitive)."""
    try:
        return FUNCTIONS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(FUNCTIONS))
        raise KeyError(f"unknown aggregate function {name!r}; known: {known}") from None


register_function(AggregateFunction("sum", _sum))
register_function(AggregateFunction("min", _min))
register_function(AggregateFunction("max", _max))
register_function(
    AggregateFunction("count", _count, merger="sum", lift=_presence_lift)
)
register_function(
    AggregateFunction(
        "avg",
        # Direct combine for raw measures (no pre-aggregation involved).
        lambda arrays: _avg_finalize({"sum": _sum(arrays), "count": _count(arrays)}),
        distributive=False,
        sub_aggregates=("sum", "count"),
        finalize=_avg_finalize,
    )
)
