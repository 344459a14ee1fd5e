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
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import GraphAnalyticsEngine, GraphQuery, GraphRecord
from repro.exec import QueryExecutor

# pyproject's per-test ``timeout``, which only pytest-timeout enforces.
HANG_SECONDS = 300
# How long a test's threads and child processes get to finish winding
# down after it returns before the leak check calls them leaked.
LEAK_GRACE_SECONDS = 5.0


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


def _children() -> set[int]:
    """Direct children of this process, any of whose threads may own some,
    read from ``/proc`` the way ``benchmarks/e2e/daemon.py`` reads a
    daemon's.  Empty where there is no ``/proc``."""
    pid = os.getpid()
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return set()
    found: set[int] = set()
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.update(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


@pytest.fixture(autouse=True)
def no_leaked_threads_or_children():
    """Fail a test that leaves a thread or a child process behind it.

    Whatever is alive once the test's wider-scoped fixtures are set up is
    the baseline; what the test starts must be gone within
    ``LEAK_GRACE_SECONDS`` of its end."""
    threads, children = set(threading.enumerate()), _children()
    yield
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    while True:
        new_threads = [t.name for t in threading.enumerate() if t not in threads]
        new_children = sorted(_children() - children)
        if not (new_threads or new_children) or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert not new_threads, f"test leaked live threads: {new_threads}"
    assert not new_children, f"test leaked child processes: {new_children}"


@pytest.fixture
def reopen(tmp_path_factory):
    """``reopen(engine, shards)``: ``engine`` saved and loaded back the way
    the end-to-end benchmark's daemons open their store,
    ``GraphAnalyticsEngine.load(dir, shards=k)``
    (``benchmarks/e2e/layers.py:170``).  ``shards`` still parses and
    changes nothing; the tests parametrized over it pin that."""

    def reopen(engine: GraphAnalyticsEngine, shards: int) -> GraphAnalyticsEngine:
        directory = tmp_path_factory.mktemp("reopened") / "db"
        engine.save(directory)
        return GraphAnalyticsEngine.load(directory, shards=shards)

    return reopen


def run_concurrently(executor, queries, clients, fetch_measures=True):
    """Answer ``queries`` from ``clients`` threads, each through
    ``executor.run_one`` as the daemon's bridge threads call it, and
    return the results in submission order.  The executor runs a batch
    in order on one thread; this is how a test gets concurrent readers
    sharing its cache, collector and registry."""
    with ThreadPoolExecutor(max_workers=clients) as pool:
        return list(pool.map(lambda q: executor.run_one(q, fetch_measures), queries))


@pytest.fixture(params=["loop", "bridged"])
def read_path(request, monkeypatch):
    """Each way the daemon answers a read: on its event loop where nothing
    makes the read wait (``QueryExecutor.nowait_words`` as shipped), or
    bridged off the loop, as every read that ANDs a word is under
    ``nowait_words = 0``."""
    if request.param == "bridged":
        monkeypatch.setattr(QueryExecutor, "nowait_words", 0)
    return request.param


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
