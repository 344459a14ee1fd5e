"""Tests for aggregate functions and partial-aggregate composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import RowStore
from repro.core import (
    AggregateFunction,
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    Path,
    PathAggregationQuery,
    get_function,
    register_function,
)
from repro.core.aggregates import FUNCTIONS


def arrays(*rows):
    return [np.asarray(r, dtype=np.float64) for r in rows]


class TestBasicFunctions:
    def test_sum(self):
        out = get_function("sum")(arrays([1, 2], [3, 4]))
        assert out.tolist() == [4.0, 6.0]

    def test_sum_skips_nan(self):
        out = get_function("sum")(arrays([1, np.nan], [3, 4]))
        assert out.tolist() == [4.0, 4.0]

    def test_min_max(self):
        assert get_function("min")(arrays([1, 9], [3, 4])).tolist() == [1.0, 4.0]
        assert get_function("max")(arrays([1, 9], [3, 4])).tolist() == [3.0, 9.0]

    def test_count(self):
        out = get_function("count")(arrays([1, np.nan], [np.nan, np.nan]))
        assert out.tolist() == [1.0, 0.0]

    def test_avg(self):
        out = get_function("avg")(arrays([1, 2], [3, 6]))
        assert out.tolist() == [2.0, 4.0]

    def test_avg_all_null_is_nan(self):
        out = get_function("avg")(arrays([np.nan], [np.nan]))
        assert np.isnan(out[0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            get_function("sum")([])

    def test_lookup_case_insensitive(self):
        assert get_function("SUM") is get_function("sum")

    def test_unknown_function(self):
        with pytest.raises(KeyError, match="unknown aggregate"):
            get_function("median")


class TestRegistry:
    def test_register_custom(self):
        fn = AggregateFunction("teststd", lambda a: np.nanstd(np.vstack(a), axis=0))
        register_function(fn)
        try:
            assert get_function("teststd") is fn
        finally:
            del FUNCTIONS["teststd"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_function(AggregateFunction("sum", lambda a: a))

    def test_algebraic_flags(self):
        assert not get_function("sum").is_algebraic()
        assert get_function("avg").is_algebraic()
        assert get_function("avg").sub_aggregates == ("sum", "count")


class TestPartialComposition:
    """Pre-aggregated partials must merge to the same result as raw input
    — the property aggregate graph views rely on (Section 5.1.2)."""

    def test_sum_partials(self):
        fn = get_function("sum")
        raw = arrays([1, 2], [3, 4], [5, 6])
        direct = fn(raw)
        partial = fn(raw[:2])
        merged = fn.merge_partials([partial, fn.lift(raw[2])])
        assert merged.tolist() == direct.tolist()

    def test_count_partials_merge_with_sum(self):
        fn = get_function("count")
        raw = arrays([1, np.nan], [3, 4], [5, np.nan])
        direct = fn(raw)
        partial = fn(raw[:2])
        merged = fn.merge_partials([partial, fn.lift(raw[2])])
        assert merged.tolist() == direct.tolist()

    def test_count_lift_is_presence(self):
        fn = get_function("count")
        assert fn.lift(np.array([1.0, np.nan])).tolist() == [1.0, 0.0]

    def test_min_partials(self):
        fn = get_function("min")
        raw = arrays([5, 1], [2, 8], [7, 0])
        direct = fn(raw)
        merged = fn.merge_partials([fn(raw[:2]), fn.lift(raw[2])])
        assert merged.tolist() == direct.tolist()

    @given(
        st.lists(
            st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
            min_size=2,
            max_size=6,
        ),
        st.sampled_from(["sum", "min", "max", "count"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_split_merges_to_direct(self, rows, name):
        fn = get_function(name)
        raw = arrays(*rows)
        direct = fn(raw)
        for cut in range(1, len(raw)):
            left = fn(raw[:cut])
            rights = [fn.lift(r) for r in raw[cut:]]
            merged = fn.merge_partials([left] + rights)
            assert np.allclose(merged, direct)

    @given(
        st.lists(
            st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=2),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_avg_from_sub_aggregates(self, rows):
        raw = arrays(*rows)
        avg = get_function("avg")
        direct = avg(raw)
        for cut in range(1, len(raw)):
            sub = {}
            for sub_name in avg.sub_aggregates:
                sub_fn = get_function(sub_name)
                partial = sub_fn(raw[:cut])
                lifted = [sub_fn.lift(r) for r in raw[cut:]]
                sub[sub_name] = sub_fn.merge_partials([partial] + lifted)
            assert np.allclose(avg.finalize(sub), direct)


def scaled_columns(k: int, n: int, seed: int) -> list[np.ndarray]:
    """``k`` path elements over ``n`` rows: normals times powers of ten
    from 1e-3 to 1e3, 10 % NULL — sums that round differently in
    different orders."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-3, 4, size=(k, n))
    return list(np.where(rng.random((k, n)) < 0.1, np.nan, values))


class TestRowCountIndependence:
    """A record's aggregate does not depend on how many records are
    combined with it: the engine combines every matching row at once, the
    row store one record at a time, a view append only the new rows."""

    @given(
        k=st.integers(1, 32),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(["sum", "min", "max", "count", "avg"]),
    )
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:All-NaN slice")
    def test_one_row_combines_like_many(self, k, n, seed, name):
        fn = get_function(name)
        columns = scaled_columns(k, n, seed)
        together = fn.combine(columns)
        for i in range(n):
            alone = fn.combine([a[i : i + 1] for a in columns])
            assert alone.tobytes() == together[i : i + 1].tobytes()



TEN_EDGES = [f"n{i}" for i in range(11)]
SUM_TEN = PathAggregationQuery(GraphQuery.from_node_chain(*TEN_EDGES), "sum")


def ten_edge_records(count: int) -> list[GraphRecord]:
    """Records holding the whole ten-edge path, measures as in
    :func:`scaled_columns` but never NULL."""
    rng = np.random.default_rng(23)
    values = rng.normal(size=(count, 10)) * 10.0 ** rng.integers(-3, 4, size=(count, 10))
    edges = list(zip(TEN_EDGES, TEN_EDGES[1:]))
    return [GraphRecord(f"r{i}", dict(zip(edges, row.tolist()))) for i, row in enumerate(values)]


class TestTenEdgeSum:
    """Regressions for a SUM whose path is long enough (eight elements or
    more) for a pairwise single-row sum to round differently."""

    def test_engine_matches_row_store(self):
        records = ten_edge_records(40)
        engine = GraphAnalyticsEngine()
        engine.load_records(records)
        store = RowStore()
        store.load_records(records)
        got, want = engine.aggregate(SUM_TEN), store.aggregate(SUM_TEN)
        path = Path.closed(*TEN_EDGES)
        assert got.record_ids == list(want)
        assert got.path_values[path].tolist() == [want[r][path] for r in got.record_ids]

    def test_appended_view_matches_rebuilt(self):
        records = ten_edge_records(40)
        grown = GraphAnalyticsEngine()
        grown.load_records(records[:20])
        grown.materialize_aggregate_views([SUM_TEN], budget=1)
        grown.append_records(records[20:])
        rebuilt = GraphAnalyticsEngine()
        rebuilt.load_records(records)
        rebuilt.materialize_aggregate_views([SUM_TEN], budget=1)
        views = grown.relation.aggregate_views_for_persistence()
        assert views and views == rebuilt.relation.aggregate_views_for_persistence()
