"""Unit tests for continuous workload-adaptive view maintenance:
the workload window, the maintainer's refresh/decay logic, the facade's
incremental materialize / per-view drop, executor observation + atomic
swap, the ``/views`` endpoint, and the ``repro views`` CLI."""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    GraphAnalyticsEngine,
    GraphQuery,
    GraphRecord,
    PathAggregationQuery,
    QueryExecutor,
    ViewMaintainer,
    WorkloadWindow,
)
from repro.adaptive import MaintenanceReport, WindowEntry
from repro.obs import MetricsRegistry


def small_records(n=24):
    out = []
    for i in range(n):
        if i % 2:
            edges = {("A", "B"): float(i), ("B", "C"): 1.0}
        else:
            edges = {("A", "B"): float(i), ("C", "D"): 2.0}
        out.append(GraphRecord(f"r{i}", edges))
    return out


AB_BC = GraphQuery([("A", "B"), ("B", "C")])
AB_CD = GraphQuery([("A", "B"), ("C", "D")])


class TestWorkloadWindow:
    def test_record_and_snapshot(self):
        window = WorkloadWindow(size=4)
        window.record(AB_BC, ("gv1",))
        window.record(AB_CD)
        snap = window.snapshot()
        assert snap == [WindowEntry(AB_BC, ("gv1",)), WindowEntry(AB_CD, ())]
        assert len(window) == 2 and window.observed == 2

    def test_bounded_but_counts_all(self):
        window = WorkloadWindow(size=3)
        for _ in range(10):
            window.record(AB_BC)
        assert len(window) == 3
        assert window.observed == 10

    def test_clear(self):
        window = WorkloadWindow(size=3)
        window.record(AB_BC)
        window.clear()
        assert len(window) == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WorkloadWindow(size=0)

    def test_concurrent_records(self):
        window = WorkloadWindow(size=1000)

        def spam():
            for _ in range(200):
                window.record(AB_BC, ("v",))

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert window.observed == 800
        assert len(window) == 800


class TestFacadeIncremental:
    def test_full_build_matches_add_graph_view(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        a = engine.add_graph_view(AB_BC.elements, name="manual")
        staged = engine.compute_view_bitmap(AB_BC.elements)
        b = engine.add_graph_view(AB_BC.elements, name="incr", staged=staged)
        bm_a = engine.relation.ref_bitmap("graph-view", a)
        bm_b = engine.relation.ref_bitmap("graph-view", b)
        assert bm_a.to_indices().tolist() == bm_b.to_indices().tolist()

    def test_drop_decayed_is_per_view(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        keep = engine.add_graph_view(AB_BC.elements, name="keep")
        goner = engine.add_graph_view(AB_CD.elements, name="goner")
        before = engine.epoch
        dropped = engine.drop_decayed(["goner", "missing"])
        assert dropped == [goner]
        assert keep in engine.graph_views
        assert goner not in engine.graph_views
        assert not engine.relation.has_graph_view("goner")
        assert engine.epoch == before + 1

    def test_drop_decayed_unknown_names_no_epoch_bump(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        before = engine.epoch
        assert engine.drop_decayed(["nope"]) == []
        assert engine.epoch == before

    def test_drop_decayed_aggregate_view(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        agg = PathAggregationQuery(
            GraphQuery([("A", "B"), ("B", "C")]), "avg"
        )
        report = engine.materialize_aggregate_views([agg] * 3, budget=1, function="avg")
        assert report.selected
        name = report.selected[0]
        stored = engine.aggregate_views[name].column_names()
        dropped = engine.drop_decayed([name])
        assert dropped == [name]
        assert name not in engine.aggregate_views
        for column in stored:
            assert column not in engine.relation.aggregate_view_names()

    def test_dropped_view_leaves_plans(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        name = engine.add_graph_view(AB_BC.elements)
        used = engine.query(AB_BC, fetch_measures=False)
        assert name in used.plan.view_names
        engine.drop_decayed([name])
        after = engine.query(AB_BC, fetch_measures=False)
        assert name not in after.plan.view_names
        assert after.record_ids == used.record_ids


class TestExecutorWiring:
    def test_window_observes_plan_views(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        with QueryExecutor(engine) as executor:
            window = WorkloadWindow()
            executor.attach_window(window)
            executor.run_one(AB_BC, fetch_measures=False)
            name = executor.commit_view_swap(
                adds=[(None, *executor.stage_view(AB_BC.elements))]
            )["added"][0]
            executor.run_one(AB_BC, fetch_measures=False)
            first, second = window.snapshot()
            assert first == WindowEntry(AB_BC, ())
            assert second == WindowEntry(AB_BC, (name,))

    def test_window_observes_each_atom_of_a_boolean_query(self):
        """A boolean expression has no one plan: each of its atoms is
        recorded, with no views, even when a view covers the atom."""
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        with QueryExecutor(engine) as executor:
            executor.commit_view_swap(
                adds=[(None, *executor.stage_view(AB_BC.elements))]
            )
            window = WorkloadWindow()
            executor.attach_window(window)
            executor.run_one(AB_BC & AB_CD, fetch_measures=False)
            executor.run_one(AB_BC | AB_CD, fetch_measures=False)
            assert window.snapshot() == [
                WindowEntry(AB_BC, ()), WindowEntry(AB_CD, ()),
                WindowEntry(AB_BC, ()), WindowEntry(AB_CD, ()),
            ]

    def test_swap_bumps_epoch_and_invalidates_cache(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        with QueryExecutor(engine, cache_mb=4) as executor:
            r1 = executor.run_one(AB_BC, fetch_measures=False)
            r2 = executor.run_one(AB_BC, fetch_measures=False)
            assert executor.cache.stats.hits >= 1
            name = executor.commit_view_swap(
                adds=[(None, *executor.stage_view(AB_BC.elements))]
            )["added"][0]
            assert engine.epoch > r2.epoch
            # No stale entries survive the swap.
            assert all(k[0] == engine.epoch for k in executor.cache._entries)
            r3 = executor.run_one(AB_BC, fetch_measures=False)
            assert r3.epoch == engine.epoch
            assert r3.record_ids == r1.record_ids
            executor.drop_decayed([name])
            assert all(k[0] == engine.epoch for k in executor.cache._entries)

    def test_commit_view_swap_is_one_atomic_batch(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        with QueryExecutor(engine) as executor:
            old = executor.commit_view_swap(
                adds=[(None, *executor.stage_view(AB_CD.elements))]
            )["added"][0]
            elements, staged = executor.stage_view(AB_BC.elements)
            before = engine.epoch
            swap = executor.commit_view_swap(
                adds=[(None, elements, staged)], drops=[old]
            )
            assert swap["dropped"] == [old]
            assert len(swap["added"]) == 1
            # adds + drops + one shared views-epoch bump per side of the
            # batch, all within a single exclusive section.
            assert swap["epoch"] == engine.epoch
            assert engine.epoch - before == 2
            assert swap["n_records"] == engine.n_records

    def test_stage_then_append_then_commit(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        with QueryExecutor(engine) as executor:
            elements, staged = executor.stage_view(AB_BC.elements)
            executor.append_records(
                [GraphRecord("x0", {("A", "B"): 1.0, ("B", "C"): 1.0})]
            )
            swap = executor.commit_view_swap(adds=[(None, elements, staged)])
            name = swap["added"][0]
            got = engine.relation.ref_bitmap("graph-view", name)
            want = engine.compute_view_bitmap(AB_BC.elements)
            assert got.to_indices().tolist() == want.to_indices().tolist()


def run_workload(executor, queries, repeat=1):
    for _ in range(repeat):
        for query in queries:
            executor.run_one(query, fetch_measures=False)


class TestViewMaintainer:
    def make(self, **kwargs):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        executor = QueryExecutor(engine, cache_mb=2)
        defaults = dict(
            budget=4, min_window=4, min_support=2, interval_s=0.05,
            grace_refreshes=0,
        )
        defaults.update(kwargs)
        return engine, executor, ViewMaintainer(executor, **defaults)

    def test_skips_below_min_window(self):
        engine, executor, maintainer = self.make(min_window=10)
        with executor:
            run_workload(executor, [AB_BC], repeat=3)
            report = maintainer.refresh()
            assert not report.refreshed
            assert "below minimum" in report.reason
            assert not engine.graph_views

    def test_materializes_hot_views(self):
        engine, executor, maintainer = self.make()
        with executor:
            run_workload(executor, [AB_BC, AB_CD], repeat=4)
            report = maintainer.refresh()
            assert report.refreshed and report.swapped
            managed = maintainer.managed_views()
            assert set(managed.values()) == {AB_BC.elements, AB_CD.elements}
            result = executor.run_one(AB_BC, fetch_measures=False)
            assert result.plan.view_names

    def test_second_refresh_keeps_hot_views(self):
        engine, executor, maintainer = self.make()
        with executor:
            run_workload(executor, [AB_BC, AB_CD], repeat=4)
            maintainer.refresh()
            run_workload(executor, [AB_BC, AB_CD], repeat=4)
            report = maintainer.refresh()
            assert not report.added and not report.dropped
            assert set(report.kept) == set(maintainer.managed_views())

    def test_drops_decayed_views_after_drift(self):
        engine, executor, maintainer = self.make(window=WorkloadWindow(16))
        with executor:
            run_workload(executor, [AB_CD], repeat=8)
            first = maintainer.refresh()
            assert len(first.added) == 1
            old = first.added[0]
            # Hot set shifts entirely; the window fills with the new
            # queries, the old view's hit rate decays to zero.
            run_workload(executor, [AB_BC], repeat=16)
            report = maintainer.refresh()
            assert old in report.dropped
            assert old not in engine.graph_views
            assert AB_BC.elements in set(maintainer.managed_views().values())
            assert report.hit_rates[old] == 0.0

    def test_high_hit_rate_view_survives_leaving_desired_set(self):
        engine, executor, maintainer = self.make(window=WorkloadWindow(16))
        with executor:
            run_workload(executor, [AB_CD], repeat=8)
            first = maintainer.refresh()
            old = first.added[0]
            # Still mostly AB_CD traffic (hit rate high) but sprinkle the
            # new query in: nothing should be dropped.
            run_workload(executor, [AB_CD, AB_CD, AB_CD, AB_BC], repeat=4)
            report = maintainer.refresh()
            assert old not in report.dropped
            assert report.hit_rates[old] > maintainer.hit_rate_floor

    def test_never_drops_unmanaged_views(self):
        engine, executor, maintainer = self.make(window=WorkloadWindow(16))
        with executor:
            manual = executor.commit_view_swap(
                adds=[("manual", *executor.stage_view(AB_CD.elements))]
            )["added"][0]
            run_workload(executor, [AB_BC], repeat=8)
            for _ in range(3):
                maintainer.refresh()
            assert manual in engine.graph_views

    def test_never_duplicates_existing_bitmap(self):
        engine, executor, maintainer = self.make()
        with executor:
            executor.commit_view_swap(adds=[("manual", *executor.stage_view(AB_BC.elements))])
            run_workload(executor, [AB_BC], repeat=8)
            report = maintainer.refresh()
            assert not report.added
            assert [v.elements for v in engine.graph_views.values()] == [
                AB_BC.elements
            ]

    def test_budget_respected(self):
        engine, executor, maintainer = self.make(budget=1)
        with executor:
            run_workload(executor, [AB_BC, AB_CD], repeat=4)
            maintainer.refresh()
            assert len(maintainer.managed_views()) <= 1

    def test_grace_protects_fresh_views(self):
        engine, executor, maintainer = self.make(
            window=WorkloadWindow(8), grace_refreshes=5
        )
        with executor:
            run_workload(executor, [AB_CD], repeat=8)
            first = maintainer.refresh()
            old = first.added[0]
            run_workload(executor, [AB_BC], repeat=8)
            report = maintainer.refresh()
            assert old not in report.dropped  # still inside the grace period

    def test_background_loop_start_stop(self):
        engine, executor, maintainer = self.make(interval_s=0.02)
        with executor:
            run_workload(executor, [AB_BC, AB_CD], repeat=4)
            maintainer.start()
            assert maintainer.running
            maintainer.start()  # idempotent
            deadline = time.time() + 5.0
            while maintainer.refreshes == 0 and time.time() < deadline:
                time.sleep(0.01)
            maintainer.stop()
            assert not maintainer.running
            assert maintainer.refreshes >= 1
            assert maintainer.managed_views()
            maintainer.stop()  # idempotent

    def test_loop_survives_refresh_errors(self):
        registry = MetricsRegistry()
        engine, executor, maintainer = self.make(interval_s=0.01, registry=registry)
        boom = RuntimeError("boom")

        original = maintainer.refresh
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise boom
            return original()

        maintainer.refresh = flaky
        maintainer.start()
        deadline = time.time() + 5.0
        while len(calls) < 2 and time.time() < deadline:
            time.sleep(0.01)
        maintainer.stop()
        executor.close()
        assert len(calls) >= 2
        assert maintainer.last_error is boom
        assert registry.to_dict()["adaptive.errors"]["value"] == 1
        assert maintainer.status()["last_error"] == repr(boom)

    def test_forgets_externally_dropped_views(self):
        engine, executor, maintainer = self.make()
        with executor:
            run_workload(executor, [AB_BC, AB_CD], repeat=4)
            maintainer.refresh()
            executor.drop_all_views()
            report = maintainer.refresh()
            assert not maintainer.managed_views() or report.added
            assert all(
                name in engine.graph_views
                for name in maintainer.managed_views()
            )

    def test_metrics_published(self):
        registry = MetricsRegistry()
        engine, executor, maintainer = self.make(registry=registry)
        with executor:
            run_workload(executor, [AB_BC, AB_CD], repeat=4)
            maintainer.refresh()
            dump = registry.to_dict()
            assert dump["adaptive.refreshes"]["value"] == 1
            assert dump["adaptive.views_added"]["value"] == 2
            assert dump["adaptive.managed_views"]["value"] == 2
            assert dump["adaptive.swap_epoch"]["value"] == engine.epoch
            assert dump["adaptive.maintenance_seconds"]["count"] == 1

    def test_decayed_drop_is_exported(self):
        registry = MetricsRegistry()
        engine, executor, maintainer = self.make(
            window=WorkloadWindow(16), registry=registry
        )
        with executor:
            run_workload(executor, [AB_CD], repeat=8)
            maintainer.refresh()
            run_workload(executor, [AB_BC], repeat=16)
            report = maintainer.refresh()
            dump = registry.to_dict()
        assert len(report.dropped) == 1
        assert dump["adaptive.views_dropped"] == {"type": "counter", "value": 1}
        assert dump["adaptive.views_added"]["value"] == 2
        assert dump["adaptive.refreshes"]["value"] == 2
        assert dump["adaptive.managed_views"]["value"] == 1
        assert dump["adaptive.window_size"]["value"] == 16

    def test_status_shape(self):
        engine, executor, maintainer = self.make()
        with executor:
            run_workload(executor, [AB_BC], repeat=8)
            maintainer.refresh()
            status = maintainer.status()
            assert status["running"] is False
            assert status["refreshes"] == 1
            assert status["window"]["observed"] == 8
            (managed,) = status["managed"].values()
            assert managed["elements"] == [["A", "B"], ["B", "C"]]
            assert status["last_refresh"]["added"]
            import json

            json.dumps(status)  # must be wire-serializable

    def test_validation(self):
        engine, executor, _ = self.make()
        with executor:
            with pytest.raises(ValueError):
                ViewMaintainer(executor, budget=0)
            with pytest.raises(ValueError):
                ViewMaintainer(executor, interval_s=0)
            with pytest.raises(ValueError):
                ViewMaintainer(executor, hit_rate_floor=1.5)

    def test_report_swapped_property(self):
        report = MaintenanceReport()
        assert not report.swapped
        report.added = ["v"]
        assert report.swapped


class TestAggregateObservation:
    def test_agg_queries_feed_window_with_structural_views(self):
        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        with QueryExecutor(engine) as executor:
            window = WorkloadWindow()
            executor.attach_window(window)
            agg = PathAggregationQuery(AB_BC, "sum")
            executor.run_one(agg)
            name = executor.commit_view_swap(
                adds=[(None, *executor.stage_view(AB_BC.elements))]
            )["added"][0]
            executor.run_one(agg)
            entries = window.snapshot()
            assert [e.query for e in entries] == [AB_BC, AB_BC]
            assert name in entries[1].views_used


class TestServeViewsEndpoint:
    def test_views_route_and_lifecycle(self):
        from repro.serve import ServeClient, start_in_thread

        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        registry = MetricsRegistry()
        executor = QueryExecutor(engine, cache_mb=2, registry=registry)
        maintainer = ViewMaintainer(
            executor, budget=4, min_window=4, interval_s=0.05,
            registry=registry,
        )
        handle = start_in_thread(executor, registry=registry, maintainer=maintainer)
        try:
            with ServeClient(*handle.address) as client:
                payload = {"elements": [["A", "B"], ["B", "C"]]}
                for _ in range(8):
                    client.query(payload)
                deadline = time.time() + 5.0
                while maintainer.views_added == 0 and time.time() < deadline:
                    time.sleep(0.02)
                assert maintainer.running
                doc = client.views()
            assert doc["epoch"] == engine.epoch
            names = [v["name"] for v in doc["graph_views"]]
            assert names and names == sorted(names)
            assert doc["adaptive"]["running"] is True
            assert doc["adaptive"]["views_added"] >= 1
            assert doc["aggregate_views"] == []
        finally:
            handle.stop()
            executor.close()
        # The maintainer's lifecycle is tied to the server's.
        assert not maintainer.running

    def test_views_without_maintainer(self):
        from repro.serve import ServeClient, start_in_thread

        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        engine.add_graph_view(AB_BC.elements, name="manual")
        executor = QueryExecutor(engine)
        handle = start_in_thread(executor)
        try:
            with ServeClient(*handle.address) as client:
                doc = client.views()
            assert doc["adaptive"] is None
            assert [v["name"] for v in doc["graph_views"]] == ["manual"]
            assert doc["graph_views"][0]["elements"] == [["A", "B"], ["B", "C"]]
        finally:
            handle.stop()
            executor.close()


class TestViewsCli:
    def test_views_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        engine = GraphAnalyticsEngine()
        engine.load_records(small_records())
        engine.add_graph_view(AB_BC.elements, name="gv_manual")
        engine.materialize_aggregate_views(
            [PathAggregationQuery(AB_BC, "sum")] * 3, budget=1
        )
        engine.save(tmp_path / "db")

        assert main(["views", str(tmp_path / "db")]) == 0
        text = capsys.readouterr().out
        assert "gv_manual" in text and "A-B" in text
        assert "graph views (1)" in text
        assert "aggregate views (1)" in text

        assert main(["views", str(tmp_path / "db"), "--json"]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["graph_views"][0]["name"] == "gv_manual"
        assert doc["graph_views"][0]["rows"] == 12
        assert doc["aggregate_views"][0]["function"] == "sum"

    def test_serve_parser_accepts_adaptive_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "db", "--adaptive", "--adaptive-interval", "0.5",
                "--adaptive-budget", "3", "--adaptive-window", "64",
                "--adaptive-min-support", "2", "--adaptive-floor", "0.1",
            ]
        )
        assert args.adaptive and args.adaptive_budget == 3
        assert args.adaptive_interval == 0.5
        plain = build_parser().parse_args(["serve", "db"])
        assert not plain.adaptive
