"""Tests for record interchange formats and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import GraphRecord
from repro.io import (
    read_csv_triplets,
    read_jsonl,
    write_csv_triplets,
    write_jsonl,
)

RECORDS = [
    GraphRecord("r1", {("A", "B"): 1.5, ("B", "B"): 2.0}, metadata={"kind": "fast"}),
    GraphRecord("r2", {("B", "C"): 3.25}),
]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        assert write_jsonl(RECORDS, path) == 2
        back = list(read_jsonl(path))
        assert back == RECORDS
        assert back[0].metadata == {"kind": "fast"}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(RECORDS, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_jsonl(path))) == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "r1", "measures": [["A","B",1]]}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            list(read_jsonl(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"measures": []}\n')
        with pytest.raises(ValueError, match="missing field"):
            list(read_jsonl(path))

    def test_malformed_measure(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "r", "measures": [["A","B"]]}\n')
        with pytest.raises(ValueError, match="u, v, value"):
            list(read_jsonl(path))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "records.csv"
        assert write_csv_triplets(RECORDS, path) == 2
        back = list(read_csv_triplets(path))
        assert [r.record_id for r in back] == ["r1", "r2"]
        assert back[0].measure(("A", "B")) == 1.5
        assert back[0].measure(("B", "B")) == 2.0

    def test_no_header(self, tmp_path):
        path = tmp_path / "records.csv"
        write_csv_triplets(RECORDS, path, header=False)
        back = list(read_csv_triplets(path))
        assert len(back) == 2

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("r1,A,B\n")
        with pytest.raises(ValueError, match="4 columns"):
            list(read_csv_triplets(path))


class TestCli:
    def _database(self, tmp_path):
        source = tmp_path / "records.jsonl"
        write_jsonl(RECORDS, source)
        db = tmp_path / "db"
        assert main(["load", str(source), str(db)]) == 0
        return db

    def test_load_and_stats(self, tmp_path, capsys):
        db = self._database(tmp_path)
        capsys.readouterr()
        assert main(["stats", str(db)]) == 0
        out = capsys.readouterr().out
        assert "records:            2" in out
        assert "element columns:    3" in out

    def test_query(self, tmp_path, capsys):
        db = self._database(tmp_path)
        capsys.readouterr()
        assert main(["query", str(db), "{(A,B)}"]) == 0
        out = capsys.readouterr().out
        assert "1 matching records" in out
        assert "r1" in out

    def test_query_ids_only(self, tmp_path, capsys):
        db = self._database(tmp_path)
        capsys.readouterr()
        assert main(["query", str(db), "{(B,C)}", "--ids-only"]) == 0
        assert "r2" in capsys.readouterr().out

    def test_aggregate(self, tmp_path, capsys):
        db = self._database(tmp_path)
        capsys.readouterr()
        assert main(["aggregate", str(db), "SUM {(A,B), (B,B)}"]) == 0
        out = capsys.readouterr().out
        assert "r1: 3.5" in out

    def test_csv_load(self, tmp_path, capsys):
        source = tmp_path / "records.csv"
        write_csv_triplets(RECORDS, source)
        db = tmp_path / "db"
        assert main(["load", str(source), str(db)]) == 0
        capsys.readouterr()
        assert main(["query", str(db), "{(A,B)}", "--ids-only"]) == 0
        assert "r1" in capsys.readouterr().out

    def test_bad_query_is_error_not_traceback(self, tmp_path, capsys):
        db = self._database(tmp_path)
        assert main(["query", str(db), "A ->"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_database(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 2

    def test_demo(self, capsys):
        assert main(["demo", "--records", "50"]) == 0
        out = capsys.readouterr().out
        assert "demo corpus: 50 records" in out


class TestObservabilityCli:
    """``repro explain`` / ``repro metrics`` end-to-end on the bundled
    Figure 2 example dataset."""

    @pytest.fixture
    def fig2_db(self, tmp_path):
        import pathlib

        examples = pathlib.Path(__file__).parent.parent / "examples"
        db = tmp_path / "db"
        assert main(["load", str(examples / "figure2.jsonl"), str(db)]) == 0
        return db, examples / "figure2_queries.txt"

    def test_explain_text(self, fig2_db, capsys):
        db, _ = fig2_db
        capsys.readouterr()
        assert main(["explain", str(db), "A -> D -> E"]) == 0
        out = capsys.readouterr().out
        assert "GraphQuery |elements|=2" in out
        assert "conjunction order:" in out
        assert "SQL:" in out

    def test_explain_is_deterministic_across_runs(self, fig2_db, capsys):
        db, _ = fig2_db
        capsys.readouterr()
        assert main(["explain", str(db), "SUM A -> D -> E"]) == 0
        first = capsys.readouterr().out
        assert main(["explain", str(db), "SUM A -> D -> E"]) == 0
        assert capsys.readouterr().out == first

    def test_explain_json(self, fig2_db, capsys):
        import json

        db, _ = fig2_db
        capsys.readouterr()
        assert main(["explain", str(db), "A -> D -> E", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "graph-query"
        assert payload["answerable"] is True

    def test_explain_analyze(self, fig2_db, capsys):
        db, _ = fig2_db
        capsys.readouterr()
        assert main(
            ["explain", str(db), "A -> D -> E", "--analyze", "--cache-mb", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "actual: 3 records" in out
        assert "rows_matched: 3" in out

    def test_metrics_with_workload(self, fig2_db, capsys):
        db, queries = fig2_db
        capsys.readouterr()
        assert main(
            [
                "metrics", str(db),
                "--queries", str(queries),
                "--jobs", "2",
                "--cache-mb", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "exec.queries_served" in out
        assert "io.bitmap_columns_fetched" in out
        assert "cache.hits" in out

    def test_metrics_honours_timeout(self, fig2_db, capsys):
        """A workload whose every query overruns ``--timeout`` fails the
        command with the timeout exit code, as ``query`` and ``batch`` do."""
        db, queries = fig2_db
        capsys.readouterr()
        code = main(["metrics", str(db), "--queries", str(queries), "--timeout", "1e-9"])
        assert code == 3
        assert "timed out" in capsys.readouterr().err

    def test_metrics_json_dump(self, fig2_db, capsys, tmp_path):
        import json

        db, queries = fig2_db
        dump = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main(
            [
                "metrics", str(db),
                "--queries", str(queries),
                "--json",
                "--output", str(dump),
            ]
        ) == 0
        payload = json.loads(dump.read_text())
        assert payload["exec.queries_served"]["value"] == 5
        stdout_payload = json.loads(capsys.readouterr().out)
        assert set(stdout_payload) == set(payload)

    def test_metrics_without_workload(self, fig2_db, capsys):
        db, _ = fig2_db
        capsys.readouterr()
        assert main(["metrics", str(db)]) == 0
        assert "(no metrics recorded)" in capsys.readouterr().out


class TestCliFmt:
    WORKLOAD = (
        "# paper queries\n"
        "\n"
        "a->b ->   c\n"
        "{(D,D)}\n"
        "sum {(A,B), (B,C)}  # Q1\n"
    )
    CANONICAL = (
        "# paper queries\n"
        "\n"
        "a -> b -> c\n"
        "D!\n"
        "SUM A -> B -> C  # Q1\n"
    )

    def test_formats_in_place(self, tmp_path, capsys):
        path = tmp_path / "queries.txt"
        path.write_text(self.WORKLOAD)
        assert main(["fmt", str(path)]) == 0
        assert path.read_text() == self.CANONICAL
        assert f"formatted {path}" in capsys.readouterr().err

    def test_idempotent(self, tmp_path, capsys):
        path = tmp_path / "queries.txt"
        path.write_text(self.WORKLOAD)
        assert main(["fmt", str(path)]) == 0
        capsys.readouterr()
        assert main(["fmt", str(path)]) == 0
        assert path.read_text() == self.CANONICAL
        # second run is a no-op: nothing reformatted
        assert "formatted" not in capsys.readouterr().err

    def test_check_mode_reports_without_writing(self, tmp_path, capsys):
        path = tmp_path / "queries.txt"
        path.write_text(self.WORKLOAD)
        assert main(["fmt", "--check", str(path)]) == 1
        assert path.read_text() == self.WORKLOAD
        assert f"would reformat {path}" in capsys.readouterr().out
        path.write_text(self.CANONICAL)
        assert main(["fmt", "--check", str(path)]) == 0

    def test_stdout_mode(self, tmp_path, capsys):
        path = tmp_path / "queries.txt"
        path.write_text(self.WORKLOAD)
        capsys.readouterr()
        assert main(["fmt", "--stdout", str(path)]) == 0
        assert capsys.readouterr().out == self.CANONICAL
        assert path.read_text() == self.WORKLOAD

    def test_syntax_error_reports_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "queries.txt"
        path.write_text("a -> b\na -> -> c\n")
        assert main(["fmt", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "line 2" in err

    def test_examples_file_is_already_canonical(self, capsys):
        from pathlib import Path as FsPath

        examples = FsPath(__file__).parent.parent / "examples" / "figure2_queries.txt"
        assert main(["fmt", "--check", str(examples)]) == 0
