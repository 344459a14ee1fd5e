"""Durability and fault-tolerance tests.

Exercises the crash-safety contract of the persistence layer (an
interrupted save at *any* stage leaves the previous relation loadable),
integrity verification (torn writes, bit rot, metadata corruption are
detected as typed errors), graceful view degradation (a damaged view file
drops just that view and queries stay correct on base bitmaps), resumable
bulk ingestion, and the strict/skip/collect ingest error policies.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.columnstore import (
    Bitmap,
    MasterRelation,
    MeasureColumn,
    RelationBitmapReader,
    load_relation,
    save_relation,
)
from repro.core import GraphAnalyticsEngine, GraphQuery, GraphRecord, PathAggregationQuery
from repro.cli import main
from repro.lang import parse_query
from repro.errors import (
    CorruptionError,
    IngestError,
    ManifestError,
    PathJoinError,
    PersistenceError,
    QuerySyntaxError,
    ReproError,
)
from repro.io import QuarantineReport, read_csv_triplets, read_jsonl, write_jsonl
from tests import faultinject as fi

# -- fixtures ----------------------------------------------------------------


def _relation(n_extra_rows: int = 0) -> MasterRelation:
    """A small relation with one graph view and one aggregate view; the
    v2 variant (``n_extra_rows > 0``) has more records but the same
    columns, so its save runs through the same stage sequence."""
    n = 2 + n_extra_rows
    rel = MasterRelation(partition_width=2)
    extra = list(range(2, n))
    rel.append_columns(n, {
        0: ([0, *extra], [1.0] + [5.0 + i for i in range(n_extra_rows)]),
        1: ([0, 1], [2.0, 3.0]),
        2: ([1, *extra], [4.0] + [6.0] * n_extra_rows),
    })
    rel.add_graph_view("gv1", Bitmap.from_indices(n, [0]))
    rel.add_aggregate_view(
        "av1:sum", MeasureColumn.from_optionals([5.0] + [None] * (n - 1))
    )
    return rel


def _saved_db(tmp_path, name="db"):
    db = tmp_path / name
    save_relation(_relation(), db)
    return db


def _records() -> list[GraphRecord]:
    out = []
    for i in range(10):
        if i % 2 == 0:
            out.append(
                GraphRecord(
                    f"r{i}", {("A", "B"): 1.0 + i, ("B", "C"): 2.0, ("C", "D"): 0.5}
                )
            )
        else:
            out.append(GraphRecord(f"r{i}", {("A", "B"): 1.0, ("D", "E"): float(i)}))
    return out


# -- typed error hierarchy ---------------------------------------------------


class TestErrorHierarchy:
    def test_tree(self):
        assert issubclass(PersistenceError, ReproError)
        assert issubclass(ManifestError, PersistenceError)
        assert issubclass(CorruptionError, PersistenceError)
        assert issubclass(IngestError, ReproError)
        assert issubclass(QuerySyntaxError, ReproError)
        assert issubclass(PathJoinError, ReproError)

    def test_value_error_compat(self):
        # Pre-existing callers catch ValueError; the folded-in types keep that.
        assert issubclass(IngestError, ValueError)
        assert issubclass(QuerySyntaxError, ValueError)
        assert issubclass(PathJoinError, ValueError)

    def test_core_reexport_is_same_class(self):
        from repro.core import PathJoinError as core_pje

        assert core_pje is PathJoinError

    def test_parser_raises_repro_error(self):
        with pytest.raises(ReproError):
            parse_query("A ->")


# -- crash-safe saves --------------------------------------------------------


class TestAtomicSave:
    def test_interrupted_save_at_every_stage_preserves_previous(self, tmp_path):
        stages = fi.save_stage_labels(_relation(1), tmp_path / "scratch")
        assert "committed" in stages and len(stages) > 5
        commit_index = stages.index("committed")
        for i, label in enumerate(stages):
            db = tmp_path / f"db{i}"
            save_relation(_relation(), db)
            with fi.crash_at_stage(i), pytest.raises(fi.SimulatedCrash):
                save_relation(_relation(1), db)
            loaded = load_relation(db)
            if i < commit_index:
                # Crash before the manifest swap: previous version intact.
                assert loaded.n_records == 2, f"stage {label!r} damaged v1"
            else:
                # The swap already happened; the new version is durable.
                assert loaded.n_records == 3, f"stage {label!r} lost v2"
            assert loaded.has_graph_view("gv1")
            assert loaded.has_aggregate_view("av1:sum")

    def test_save_after_crash_recovers_and_collects_debris(self, tmp_path):
        db = _saved_db(tmp_path)
        with fi.crash_at_stage("generation-published"), pytest.raises(fi.SimulatedCrash):
            save_relation(_relation(1), db)
        # Crashed attempt left an uncommitted generation directory behind.
        assert len(list(db.glob("gen-*"))) == 2
        save_relation(_relation(1), db)
        assert load_relation(db).n_records == 3
        assert len(list(db.glob("gen-*"))) == 1
        assert not list(db.glob(".tmp-*"))

    def test_committed_save_replaces_and_gcs_old_generation(self, tmp_path):
        db = _saved_db(tmp_path)
        gen1 = fi.live_manifest(db)["directory"]
        save_relation(_relation(2), db)
        assert load_relation(db).n_records == 4
        assert fi.live_manifest(db)["directory"] != gen1
        assert not (db / gen1).exists()

    def test_app_meta_round_trips_in_same_commit(self, tmp_path):
        db = tmp_path / "db"
        save_relation(_relation(), db, app_meta={"owner": "tests", "epoch": 7})
        assert load_relation(db).app_meta == {"owner": "tests", "epoch": 7}


# -- integrity verification --------------------------------------------------


class TestCorruptionDetection:
    def test_truncated_npy_is_detected(self, tmp_path):
        db = _saved_db(tmp_path)
        fi.truncate_file(fi.data_file(db, "m0_vals.npy"), 4)
        with pytest.raises(CorruptionError, match="torn write"):
            load_relation(db)

    def test_bit_flip_is_detected(self, tmp_path):
        db = _saved_db(tmp_path)
        fi.flip_bit(fi.data_file(db, "m1_vals.npy"))
        with pytest.raises(CorruptionError, match="CRC32"):
            load_relation(db)

    def test_flipped_manifest_checksum_is_detected(self, tmp_path):
        db = _saved_db(tmp_path)
        fi.corrupt_manifest_crc(db, "m0_bits.npy")
        with pytest.raises(CorruptionError, match="CRC32"):
            load_relation(db)

    def test_manifest_garbage_is_manifest_error(self, tmp_path):
        db = _saved_db(tmp_path)
        (db / "manifest.json").write_text("{definitely not json")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_relation(db)

    def test_manifest_missing_fields(self, tmp_path):
        db = _saved_db(tmp_path)
        (db / "manifest.json").write_text(json.dumps({"format_version": 3}))
        with pytest.raises(ManifestError, match="missing fields"):
            load_relation(db)

    def test_unsupported_format_version(self, tmp_path):
        db = _saved_db(tmp_path)
        manifest = fi.live_manifest(db)
        manifest["format_version"] = 99
        (db / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="format_version"):
            load_relation(db)

    def test_v2_directory_asks_for_a_resave(self, tmp_path):
        """A format-2 store (``_rows.npy`` + ``_vals.npy`` per column) is
        refused whole, by the loader and by the worker attachment alike."""
        db = _saved_db(tmp_path)
        manifest = fi.live_manifest(db)
        manifest["format_version"] = 2
        (db / "manifest.json").write_text(json.dumps(manifest))
        for attach in (load_relation, RelationBitmapReader):
            with pytest.raises(ManifestError, match="re-save the relation"):
                attach(db)

    def _rewrite(self, db, name, array):
        """Replace a column file and its manifest entry, so the checksums
        pass and only the cross-file invariants can object."""
        np.save(fi.data_file(db, name), array)
        manifest = fi.live_manifest(db)
        path = fi.data_file(db, name)
        manifest["files"][name] = {
            "size": path.stat().st_size, "crc32": zlib.crc32(path.read_bytes()),
        }
        (db / "manifest.json").write_text(json.dumps(manifest))

    @pytest.mark.parametrize("vals", [[1.0, 2.0], []])
    def test_vals_popcount_mismatch_is_corruption(self, tmp_path, vals):
        """m0 has one set bit; a values file of any other length would put
        every later rank lookup on the wrong cell."""
        db = _saved_db(tmp_path)
        self._rewrite(db, "m0_vals.npy", np.array(vals, dtype=np.float64))
        with pytest.raises(CorruptionError, match="packed values"):
            load_relation(db)
        with pytest.raises(CorruptionError, match="packed values"):
            RelationBitmapReader(db).ref_bitmap("element", 0)

    def test_bit_past_record_count_is_corruption(self, tmp_path):
        db = _saved_db(tmp_path)
        self._rewrite(db, "m0_bits.npy", np.array([0b101], dtype=np.uint64))
        self._rewrite(db, "m0_vals.npy", np.array([1.0, 2.0]))
        with pytest.raises(CorruptionError, match="past the bitmap length"):
            load_relation(db)
        with pytest.raises(CorruptionError, match="past the bitmap length"):
            RelationBitmapReader(db).ref_bitmap("element", 0)

    def test_missing_generation_directory(self, tmp_path):
        db = _saved_db(tmp_path)
        manifest = fi.live_manifest(db)
        manifest["directory"] = "gen-999999"
        (db / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptionError, match="missing"):
            load_relation(db)

    def test_nonexistent_and_non_relation_dirs(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_relation(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(PersistenceError, match="not a relation directory"):
            load_relation(tmp_path / "empty")

    def test_all_failures_are_repro_errors(self, tmp_path):
        db = _saved_db(tmp_path)
        fi.truncate_file(fi.data_file(db, "m2_bits.npy"), 8)
        with pytest.raises(ReproError):
            load_relation(db)

    def test_verify_false_skips_checksums(self, tmp_path):
        db = _saved_db(tmp_path)
        fi.corrupt_manifest_crc(db, "m0_vals.npy")
        assert load_relation(db, verify=False).n_records == 2


# -- graceful view degradation ----------------------------------------------


class TestViewDegradation:
    def test_missing_view_file_drops_only_that_view(self, tmp_path):
        db = _saved_db(tmp_path)
        fi.data_file(db, "gv_gv1.npy").unlink()
        with pytest.warns(RuntimeWarning, match="gv1"):
            loaded = load_relation(db)
        assert loaded.n_records == 2
        assert not loaded.has_graph_view("gv1")
        assert loaded.has_aggregate_view("av1:sum")
        assert [name for name, _ in loaded.dropped_views] == ["gv1"]

    def test_corrupt_aggregate_view_drops_only_that_view(self, tmp_path):
        db = _saved_db(tmp_path)
        fi.flip_bit(fi.data_file(db, "av_av1:sum_vals.npy"))
        with pytest.warns(RuntimeWarning, match="av1"):
            loaded = load_relation(db)
        assert not loaded.has_aggregate_view("av1:sum")
        assert loaded.has_graph_view("gv1")
        # Base columns are untouched and still verified.
        assert loaded.measures(0)[0] == 1.0

    def test_degraded_engine_answers_queries_identically(self, tmp_path):
        engine = GraphAnalyticsEngine()
        engine.load_records(_records())
        chain = GraphQuery.from_node_chain("A", "B", "C")
        agg_query = PathAggregationQuery(chain, "sum")
        engine.materialize_graph_views([chain], budget=2)
        engine.materialize_aggregate_views([agg_query], budget=2)
        db = tmp_path / "db"
        engine.save(db)

        clean = GraphAnalyticsEngine.load(db)
        assert clean.plan_query(chain).view_names, "fixture must exercise views"
        assert clean.plan_aggregation(agg_query).structural_agg_view_names
        baseline_query = clean.query(chain)
        baseline_agg = clean.aggregate(agg_query)

        manifest = fi.live_manifest(db)
        assert manifest["graph_views"] and manifest["aggregate_views"]
        for name in manifest["graph_views"]:
            fi.flip_bit(fi.data_file(db, f"gv_{name}.npy"))
        for name in manifest["aggregate_views"]:
            fi.truncate_file(fi.data_file(db, f"av_{name}_vals.npy"), 3)

        with pytest.warns(RuntimeWarning):
            degraded = GraphAnalyticsEngine.load(db)
        # The rewriter fell back to base bitmaps / raw measure columns.
        assert degraded.plan_query(chain).view_names == []
        assert degraded.plan_aggregation(agg_query).structural_agg_view_names == []
        result = degraded.query(chain)
        assert result.record_ids == baseline_query.record_ids
        for element, values in baseline_query.measures.items():
            np.testing.assert_allclose(result.measures[element], values)
        agg = degraded.aggregate(agg_query)
        assert agg.record_ids == baseline_agg.record_ids
        assert set(agg.path_values) == set(baseline_agg.path_values)
        for path, values in baseline_agg.path_values.items():
            np.testing.assert_allclose(agg.path_values[path], values)

    def test_sync_views_prunes_phantom_definitions(self, tmp_path):
        engine = GraphAnalyticsEngine()
        engine.load_records(_records())
        chain = GraphQuery.from_node_chain("A", "B", "C")
        name = engine.add_graph_view(chain.elements)
        engine.relation.drop_graph_view(name)  # simulate a refused load
        dropped = engine.sync_views_with_relation()
        assert dropped == [name]
        assert engine.plan_query(chain).view_names == []


# -- resumable bulk loads ----------------------------------------------------


class TestResumableLoad:
    def test_clean_run_marks_checkpoint_complete(self, tmp_path):
        db = tmp_path / "db"
        engine = GraphAnalyticsEngine()
        assert engine.load_records_resumable(iter(_records()), db, batch_size=3) == 10
        state = json.loads((db / "ingest_checkpoint.json").read_text())
        assert state["complete"] and state["loaded"] == 10
        assert GraphAnalyticsEngine.load(db).n_records == 10

    def test_rerun_of_finished_load_is_noop(self, tmp_path):
        db = tmp_path / "db"
        engine = GraphAnalyticsEngine()
        engine.load_records_resumable(iter(_records()), db, batch_size=4)
        again = GraphAnalyticsEngine.load(db)
        assert again.load_records_resumable(iter(_records()), db, batch_size=4) == 0
        assert again.n_records == 10

    def test_crash_mid_load_resumes_where_it_left_off(self, tmp_path):
        db = tmp_path / "db"
        engine = GraphAnalyticsEngine()
        # Kill the third batch's save before its manifest swap: two batches
        # (6 records) are durable, the third is lost with the process.
        with fi.crash_on_nth("manifest-staged", 3), pytest.raises(fi.SimulatedCrash):
            engine.load_records_resumable(iter(_records()), db, batch_size=3)
        survivor = GraphAnalyticsEngine.load(db)
        assert survivor.n_records == 6
        assert survivor.load_records_resumable(iter(_records()), db, batch_size=3) == 4
        assert survivor.n_records == 10
        final = GraphAnalyticsEngine.load(db)
        assert final.record_ids_at(np.arange(10)) == [r.record_id for r in _records()]
        assert len(final.query(GraphQuery([("A", "B")]))) == 10

    def test_crash_between_save_and_checkpoint_write(self, tmp_path):
        db = tmp_path / "db"
        engine = GraphAnalyticsEngine()
        # Crash after the second batch committed but before its checkpoint
        # update: the saved engine is ahead of the checkpoint, which resume
        # must trust (the engine is the source of truth).
        with fi.crash_on_nth("cleaned", 2), pytest.raises(fi.SimulatedCrash):
            engine.load_records_resumable(iter(_records()), db, batch_size=3)
        checkpoint = json.loads((db / "ingest_checkpoint.json").read_text())
        assert checkpoint["loaded"] == 3
        survivor = GraphAnalyticsEngine.load(db)
        assert survivor.n_records == 6
        assert survivor.load_records_resumable(iter(_records()), db, batch_size=3) == 4
        assert survivor.n_records == 10

    def test_corrupt_checkpoint_is_typed_error(self, tmp_path):
        db = tmp_path / "db"
        db.mkdir()
        (db / "ingest_checkpoint.json").write_text("}{")
        with pytest.raises(ManifestError, match="checkpoint"):
            GraphAnalyticsEngine().load_records_resumable(iter(_records()), db)

    def test_truncated_source_on_resume_is_typed_error(self, tmp_path):
        db = tmp_path / "db"
        engine = GraphAnalyticsEngine()
        with fi.crash_on_nth("manifest-staged", 3), pytest.raises(fi.SimulatedCrash):
            engine.load_records_resumable(iter(_records()), db, batch_size=3)
        survivor = GraphAnalyticsEngine.load(db)
        with pytest.raises(IngestError, match="already loaded"):
            survivor.load_records_resumable(iter(_records()[:4]), db, batch_size=3)


# -- ingest error policies ---------------------------------------------------

_GOOD = [
    '{"id": "g1", "measures": [["A", "B", 1.0]]}',
    '{"id": "g2", "measures": [["B", "C", 2.0], ["C", "C", 0.5]]}',
    '{"id": "g3", "measures": [["A", "D", 4.0]]}',
]
_BAD = [
    "{broken json",
    '{"id": "b2", "measures": [["A", "B"]]}',
    '{"id": "b3", "measures": [["A", "B", NaN]]}',
]


def _dirty_jsonl(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = [_GOOD[0], _BAD[0], _GOOD[1], _BAD[1], _BAD[2], _GOOD[2]]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestIngestPolicies:
    def test_strict_raises_with_file_and_line(self, tmp_path):
        path = _dirty_jsonl(tmp_path)
        with pytest.raises(IngestError, match=r"records\.jsonl:2: invalid JSON"):
            list(read_jsonl(path))

    def test_strict_measure_shape_message(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(_BAD[1] + "\n")
        with pytest.raises(IngestError, match=r"records\.jsonl:1: measure entry must have 3 elements"):
            list(read_jsonl(path))

    def test_non_finite_measures_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "x", "measures": [["A", "B", Infinity]]}\n')
        with pytest.raises(IngestError, match="finite"):
            list(read_jsonl(path))

    def test_skip_policy_drops_bad_lines_silently(self, tmp_path):
        path = _dirty_jsonl(tmp_path)
        records = list(read_jsonl(path, policy="skip"))
        assert [r.record_id for r in records] == ["g1", "g2", "g3"]

    def test_collect_policy_returns_goods_and_quarantines_bads(self, tmp_path):
        path = _dirty_jsonl(tmp_path)
        report = QuarantineReport()
        records = list(read_jsonl(path, policy="collect", report=report))
        assert [r.record_id for r in records] == ["g1", "g2", "g3"]
        assert len(report) == 3
        assert [e.line_no for e in report] == [2, 4, 5]
        assert "invalid JSON" in report.entries[0].reason
        assert "3 elements" in report.entries[1].reason
        assert "finite" in report.entries[2].reason
        assert str(path) in str(report.entries[0])
        assert json.loads(report.to_json())[0]["line"] == 2

    def test_unknown_policy_rejected(self, tmp_path):
        path = _dirty_jsonl(tmp_path)
        with pytest.raises(ValueError, match="policy"):
            list(read_jsonl(path, policy="yolo"))

    def test_csv_collect_drops_fully_bad_record(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "recid,source,target,value\n"
            "r1,A,B,1.5\n"
            "r1,B,C,2.5\n"
            "r2,A,B\n"
            "r2,B,C,oops\n"
            "r3,A,B,3.0\n"
        )
        report = QuarantineReport()
        records = list(read_csv_triplets(path, policy="collect", report=report))
        assert [r.record_id for r in records] == ["r1", "r3"]
        assert len(report) == 2
        assert [e.line_no for e in report] == [4, 5]

    def test_csv_strict_reports_row(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("r1,A,B,1.0\nr1,A,C,nan\n")
        with pytest.raises(IngestError, match=r"records\.csv:2: .*finite"):
            list(read_csv_triplets(path))


# -- CLI robustness ----------------------------------------------------------


class TestCliRobustness:
    def test_missing_database_is_friendly_error(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope"), "{(A,B)}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_corrupt_database_is_friendly_error(self, tmp_path, capsys):
        source = tmp_path / "records.jsonl"
        write_jsonl(_records()[:3], source)
        db = tmp_path / "db"
        assert main(["load", str(source), str(db)]) == 0
        (db / "manifest.json").write_text("garbage")
        capsys.readouterr()
        for command in (["stats", str(db)],
                        ["query", str(db), "{(A,B)}"],
                        ["aggregate", str(db), "SUM {(A,B)}"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "Traceback" not in err

    def test_load_collect_policy_quarantines_and_succeeds(self, tmp_path, capsys):
        source = _dirty_jsonl(tmp_path)
        db = tmp_path / "db"
        qfile = tmp_path / "quarantine.json"
        rc = main([
            "load", str(source), str(db),
            "--on-error", "collect", "--quarantine", str(qfile),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "loaded 3 records" in captured.out
        assert "3 line(s) quarantined" in captured.err
        assert len(json.loads(qfile.read_text())) == 3
        assert main(["query", str(db), "{(A,B)}", "--ids-only"]) == 0

    def test_load_strict_dirty_source_fails_cleanly(self, tmp_path, capsys):
        source = _dirty_jsonl(tmp_path)
        assert main(["load", str(source), str(tmp_path / "db")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_load_resume_is_idempotent(self, tmp_path, capsys):
        source = tmp_path / "records.jsonl"
        write_jsonl(_records(), source)
        db = tmp_path / "db"
        assert main(["load", str(source), str(db), "--resume", "--batch-size", "4"]) == 0
        assert "loaded 10 records" in capsys.readouterr().out
        assert main(["load", str(source), str(db), "--resume", "--batch-size", "4"]) == 0
        assert "loaded 0 records" in capsys.readouterr().out


# -- shard-level fault injection ---------------------------------------------


class TestShardLevelFaults:
    """Live-shard failures (vs the at-rest corruption above): a shard's
    storage starts erroring *mid-query*.  Contract: typed error by
    default; under ``partial_ok`` an answer that is bit-exact on the
    healthy shards plus an accurate skipped-range report; transient blips
    absorbed by retries without the caller noticing."""

    N_SHARDS = 5

    def _engine(self, **policy_kw):
        from repro.resilience import ResiliencePolicy

        engine = GraphAnalyticsEngine(shards=self.N_SHARDS)
        engine.load_records(_records())
        engine.use_resilience(
            ResiliencePolicy(sleep=lambda _s: None, **policy_kw)
        )
        return engine

    def _healthy_oracle(self, dead_shard):
        """An engine built only from the records outside the dead shard's
        record range — ground truth for a degraded answer."""
        engine = GraphAnalyticsEngine(shards=self.N_SHARDS)
        engine.load_records(_records())
        starts = engine.relation.shard_starts()
        start = starts[dead_shard]
        stop = (
            starts[dead_shard + 1]
            if dead_shard + 1 < self.N_SHARDS
            else engine.n_records
        )
        healthy = [
            r for i, r in enumerate(_records()) if not start <= i < stop
        ]
        oracle = GraphAnalyticsEngine()
        oracle.load_records(healthy)
        return oracle, (start, stop)

    def test_corrupt_shard_mid_query_is_a_typed_error(self):
        from repro.errors import ShardExecutionError

        engine = self._engine(attempts=2)
        fi.install_faulty_shard(engine, shard=2, fail_times=None)
        with pytest.raises(ShardExecutionError) as exc_info:
            engine.query(parse_query("A -> B -> C"))
        assert exc_info.value.shard == 2
        assert isinstance(exc_info.value, ReproError)

    def test_degraded_answers_match_the_healthy_shard_oracle(self):
        from repro.resilience import QueryContext

        for dead in (0, 2, self.N_SHARDS - 1):
            engine = self._engine(attempts=1)
            fi.install_faulty_shard(engine, shard=dead, fail_times=None)
            oracle, (start, stop) = self._healthy_oracle(dead)
            for dsl in ("A -> B -> C", "{(A,B)}", "{(D,E)}"):
                query = parse_query(dsl)
                ctx = QueryContext.start(partial_ok=True)
                degraded = engine.query(query, ctx=ctx)
                expected = oracle.query(query)
                assert degraded.record_ids == expected.record_ids, dsl
                for edge, values in expected.measures.items():
                    got = degraded.measures[edge]
                    assert len(got) == len(values)
                    for a, b in zip(got, values):
                        assert (a == b) or (a != a and b != b)
                assert degraded.degraded.skipped_ranges() == [(start, stop)]

    def test_degraded_aggregation_matches_oracle(self):
        from repro.lang import parse_aggregation
        from repro.resilience import QueryContext

        engine = self._engine(attempts=1)
        fi.install_faulty_shard(engine, shard=1, fail_times=None)
        oracle, (start, stop) = self._healthy_oracle(1)
        agg = parse_aggregation("SUM A -> B -> C")
        ctx = QueryContext.start(partial_ok=True)
        degraded = engine.aggregate(agg, ctx=ctx)
        expected = oracle.aggregate(agg)
        assert degraded.record_ids == expected.record_ids
        for path, values in expected.path_values.items():
            assert list(degraded.path_values[path]) == list(values)
        assert degraded.degraded.n_records_skipped == stop - start

    def test_transient_then_healthy_io_is_invisible_to_callers(self):
        engine = self._engine(attempts=4, breaker_threshold=10)
        baseline = engine.query(parse_query("A -> B -> C")).record_ids
        proxy = fi.install_faulty_shard(engine, shard=0, fail_times=3)
        result = engine.query(parse_query("A -> B -> C"))
        assert result.record_ids == baseline
        assert result.degraded is None
        assert proxy.failures == 3  # all three blips retried through

    def test_breaker_stops_retry_storms_against_a_dead_shard(self):
        from repro.errors import ShardExecutionError

        engine = self._engine(
            attempts=2, breaker_threshold=3, breaker_reset_after=3600.0
        )
        proxy = fi.install_faulty_shard(engine, shard=1, fail_times=None)
        for _ in range(10):
            with pytest.raises(ShardExecutionError):
                engine.query(parse_query("{(A,B)}"))
        # Without the breaker this would be 10 queries x 2 attempts = 20
        # probes; the breaker capped actual shard touches at its threshold.
        assert proxy.failures == 3
