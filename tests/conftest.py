"""Shared fixtures.

``figure2_records`` reconstructs the paper's running example (Figure 2 /
Table 1).  Edge-id mapping, recovered from the figure and the Section
5.1.3 / 5.4 worked examples:

    e1=(A,B)  e2=(A,C)  e3=(C,E)  e4=(A,D)  e5=(D,E)  e6=(E,F)  e7=(F,G)

    record 1: m1=3, m2=4, m3=2, m4=1, m5=2
    record 2:       m2=1, m3=2, m4=2, m5=1, m6=4, m7=1
    record 3:                   m4=5, m5=4, m6=3, m7=1

Cross-checks against the paper: the graph view bv1 over {e1..e4} marks
only r1 (Table 1); the aggregate view mp1 = m6 + m7 stores 5 for r2 and 4
for r3 (Section 5.1.3); treating the three records as queries yields
interesting nodes {A, B, E, G} and exactly 5 candidate aggregate paths
(Section 5.4).
"""

from __future__ import annotations

import faulthandler
import importlib.util

import pytest

from repro.core import GraphAnalyticsEngine, GraphQuery, GraphRecord
from repro.exec import QueryExecutor
from repro.exec.runners import ProcessRunner
from tests.faultinject import settle

# pyproject's per-test ``timeout``, which only pytest-timeout enforces.
HANG_SECONDS = 300


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files (tests/goldens/) instead of "
             "comparing against them",
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    return request.config.getoption("--update-goldens")


if importlib.util.find_spec("pytest_timeout") is None:

    @pytest.fixture(autouse=True)
    def hang_guard():
        """Without pytest-timeout a hung test would hang the run: dump
        every thread's traceback and exit after ``HANG_SECONDS``."""
        faulthandler.dump_traceback_later(HANG_SECONDS, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def fan_out(monkeypatch):
    """The process runner cuts every query into the engine's range count:
    what a query ANDing at least ``min_fanout_words`` words does.  For
    tests of per-range supervision, degraded ranges and the process pool,
    which the small test corpora never reach."""
    monkeypatch.setattr(ProcessRunner, "min_fanout_words", 0)


@pytest.fixture(params=["loop", "bridged"])
def read_path(request, monkeypatch):
    """Each way the daemon answers a read: on its event loop where nothing
    makes the read wait (``QueryExecutor.nowait_words`` as shipped), or
    bridged off the loop, as every read that ANDs a word is under
    ``nowait_words = 0``."""
    if request.param == "bridged":
        monkeypatch.setattr(QueryExecutor, "nowait_words", 0)
    return request.param


@pytest.fixture
def worker_fault(served, fan_out):
    """The requesting module's ``served`` ``(executor, fault)`` pair — one
    process-mode executor per module, from
    :func:`tests.faultinject.worker_fault_executor` — with every query
    fanned out, the fault healed and the cache empty.  Afterwards the pool
    settles, so no late reply spends the next case's fault."""
    executor, fault = served
    fault.heal()
    if executor.cache is not None:
        executor.cache.clear()
    yield executor, fault
    settle(executor)
    fault.heal()


FIGURE2_EDGES = {
    1: ("A", "B"),
    2: ("A", "C"),
    3: ("C", "E"),
    4: ("A", "D"),
    5: ("D", "E"),
    6: ("E", "F"),
    7: ("F", "G"),
}

FIGURE2_MEASURES = {
    "r1": {1: 3.0, 2: 4.0, 3: 2.0, 4: 1.0, 5: 2.0},
    "r2": {2: 1.0, 3: 2.0, 4: 2.0, 5: 1.0, 6: 4.0, 7: 1.0},
    "r3": {4: 5.0, 5: 4.0, 6: 3.0, 7: 1.0},
}


def _figure2_records() -> list[GraphRecord]:
    out = []
    for rid, cells in FIGURE2_MEASURES.items():
        measures = {FIGURE2_EDGES[i]: v for i, v in sorted(cells.items())}
        out.append(GraphRecord(rid, measures))
    return out


@pytest.fixture
def figure2_records() -> list[GraphRecord]:
    return _figure2_records()


@pytest.fixture
def figure2_engine(figure2_records) -> GraphAnalyticsEngine:
    engine = GraphAnalyticsEngine()
    engine.load_records(figure2_records)
    return engine


@pytest.fixture
def figure2_queries(figure2_records) -> list[GraphQuery]:
    """The three record graphs reinterpreted as query graphs (§5.4)."""
    return [GraphQuery.from_record(r) for r in _figure2_records()]


@pytest.fixture(scope="session")
def small_corpus():
    """A small random-walk corpus shared by integration tests."""
    from repro.workloads import build_dataset

    return build_dataset("NY", n_records=300, seed=42)


@pytest.fixture(scope="session")
def small_engine(small_corpus):
    engine = GraphAnalyticsEngine()
    engine.load_columnar(small_corpus.record_ids(), small_corpus.to_columnar())
    return engine
