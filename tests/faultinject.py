"""Fault-injection helpers for the durability test suite.

Simulates the storage failures a production deployment actually sees:

* **mid-save crashes** — the persistence layer announces each distinct
  on-disk state transition through ``repro.columnstore.persistence``'s
  save-hook seam; :func:`crash_at_stage` raises :class:`SimulatedCrash`
  from inside a chosen transition, modeling a process killed at exactly
  that instant;
* **torn writes** — :func:`truncate_file` chops bytes off a column file,
  as when the OS flushed only part of a page before power loss;
* **bit rot** — :func:`flip_bit` flips one bit in a file's payload;
* **metadata corruption** — :func:`corrupt_manifest_crc` damages a stored
  checksum inside the manifest itself;
* **record-range failures mid-query** — :func:`install_faulty_shard`
  patches ``fold`` on a live engine's relation so that every fold
  covering a bad record range raises, either a fixed number of times or
  forever, or only runs slowly.  An in-process fold covers ``[0, n)``,
  so it fails as a whole, typed, on the first failure;
* **record-range failures inside a process-pool worker** —
  :func:`fail_shard_in_workers` starts the pool's workers through an
  entry point that makes every fold covering a bad record range raise in
  the worker process, where the fold runs; :func:`worker_fault_executor`
  starts them (whenever its pool starts) through a :class:`WorkerFault`
  switch the test flips between queries — which range fails, and how
  many more times (a transient blip the retry policy should absorb, or a
  dead range the circuit breaker should isolate) — so one pool serves
  every fault shape.

A bad range is named by a shard index: range ``shard`` of the engine's
even cut at its range count (:func:`repro.core.engine.range_tasks`) —
exactly the range a fanned-out query folds as range ``shard``.

All helpers except the shard faults operate on a
relation directory written by ``save_relation``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro.columnstore import persistence
from repro.core.engine import range_tasks
from repro.exec import QueryExecutor, procpool
from repro.obs import MetricsRegistry
from repro.resilience import ResiliencePolicy

__all__ = [
    "SimulatedCrash",
    "SimulatedShardIOError",
    "FaultyShard",
    "shard_range",
    "install_faulty_shard",
    "fail_shard_in_workers",
    "WorkerFault",
    "worker_fault_executor",
    "fresh_policy",
    "settle",
    "record_save_stages",
    "save_stage_labels",
    "crash_at_stage",
    "crash_on_nth",
    "truncate_file",
    "flip_bit",
    "corrupt_manifest_crc",
    "data_file",
    "live_manifest",
]


class SimulatedCrash(RuntimeError):
    """Raised by an injected hook to model a process dying mid-save."""


class SimulatedShardIOError(OSError):
    """Raised by :class:`FaultyShard` to model a shard I/O failure."""


class FaultyShard:
    """A fault on records ``[start, stop)`` of a live relation, patched
    over ``fold`` on the relation instance — the storage entry every
    conjunction reads through, once per range fold.  Folds of ranges
    that miss the bad records pass straight through.

    ``fail_times=N`` models a transient blip: the first ``N`` folds
    covering the range raise :class:`SimulatedShardIOError`, later ones
    pass through — the retry policy should absorb these without the
    caller noticing.  ``fail_times=None`` models a dead range: every fold
    covering it raises, which the circuit breaker should learn to stop
    probing.  ``delay`` seconds are slept before each such fold.
    """

    def __init__(self, relation, start: int, stop: int, fail_times=None, delay: float = 0.0):
        self._relation = relation
        self._start, self._stop = start, stop
        self._fail_times = fail_times
        self._delay = delay
        self._replaced = vars(relation).get("fold")
        self._fold = relation.fold
        self.calls = 0
        self.failures = 0
        relation.fold = self._faulty_fold

    def _faulty_fold(self, refs, ctx=None, start=0, stop=None):
        end = self._relation.n_records if stop is None else stop
        if start < self._stop and self._start < end:
            self.calls += 1
            if self._delay:
                time.sleep(self._delay)
            if self._fail_times is None or self.failures < self._fail_times:
                self.failures += 1
                raise SimulatedShardIOError(
                    f"injected I/O failure in records [{self._start}:{self._stop}) "
                    f"(#{self.failures})"
                )
        return self._fold(refs, ctx, start, stop)

    def heal(self) -> None:
        """Stop injecting failures from now on."""
        self._fail_times = 0

    def remove(self) -> None:
        """Put back the fold this fault replaced (faults on one relation
        come off in the reverse order they went on)."""
        if self._replaced is None:
            del self._relation.fold
        else:
            self._relation.fold = self._replaced


def shard_range(engine, shard: int) -> tuple[int, int]:
    """Records ``[start, stop)`` of range ``shard`` of the engine's cut."""
    _, start, stop = range_tasks(engine.n_records, engine.n_shards)[shard]
    return start, stop


def install_faulty_shard(
    engine, shard: int, fail_times=None, delay: float = 0.0
) -> FaultyShard:
    """Install a :class:`FaultyShard` on the records of range ``shard``
    of a running engine's cut (:func:`shard_range`); returns it
    (``heal()`` stops the failures, ``remove()`` the fault).  No epoch
    bump: the engine sees the same generation, which is exactly the
    scenario the circuit breaker is keyed for.
    """
    start, stop = shard_range(engine, shard)
    return FaultyShard(engine.relation, start, stop, fail_times=fail_times, delay=delay)


# The real entry point, bound before any test swaps the module's name.
_worker_main = procpool._worker_main


class _Always(tuple):
    """Records ``[start, stop)`` fail in every fold covering them."""

    def spend(self, start: int, stop: int) -> bool:
        return start < self[1] and self[0] < stop


class WorkerFault:
    """A switchable worker fault: a file every worker reads before each
    range fold, naming the bad records ``[start, stop)``, how many more
    folds covering them fail (-1: every one) and how many have.  A
    fanned-out query sends range ``i`` to worker ``i % workers``, retries
    included, so one worker spends the count."""

    def __init__(self, path):
        self.path = Path(path)
        self.heal()

    def _write(self, start: int, stop: int, left: int, failures: int) -> None:
        # Swapped in whole: a worker reading mid-write must not see a torn file.
        staged = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        staged.write_text(json.dumps([start, stop, left, failures]))
        os.replace(staged, self.path)

    def fail(self, engine, shard: int, fail_times=None) -> None:
        """Fail range ``shard`` of the engine's cut (:func:`shard_range`)
        ``fail_times`` more times, or forever with ``None``; the failure
        count restarts at zero."""
        self._write(*shard_range(engine, shard), -1 if fail_times is None else fail_times, 0)

    def heal(self) -> None:
        """Stop injecting failures from now on."""
        self._write(0, 0, 0, 0)

    @property
    def failures(self) -> int:
        """Folds that failed since the last :meth:`fail` or :meth:`heal`."""
        return json.loads(self.path.read_text())[3]

    def spend(self, start: int, stop: int) -> bool:
        bad_start, bad_stop, left, failures = json.loads(self.path.read_text())
        if left == 0 or not (start < bad_stop and bad_start < stop):
            return False
        self._write(bad_start, bad_stop, left - (left > 0), failures + 1)
        return True


def _worker_failing_records(fault, *args) -> None:
    """A process-pool worker whose fold raises on every range ``fault``
    spends a failure on: patched in the worker process, then the real
    loop runs."""
    and_refs = procpool.and_refs

    def failing(lookup, refs, length, check=None, read=None, start=0):
        if fault.spend(start, start + length):
            raise SimulatedShardIOError(
                f"injected I/O failure in records [{start}:{start + length})"
            )
        return and_refs(lookup, refs, length, check, read, start)

    procpool.and_refs = failing
    _worker_main(*args)


def fail_shard_in_workers(monkeypatch, engine, shard: int) -> None:
    """Start every process-pool worker spawned (or respawned) while
    ``monkeypatch`` is active through :func:`_worker_failing_records`: the
    worker answers each task, and the slot of every range covering range
    ``shard`` of the engine's cut (:func:`shard_range`) is an error.  The
    entry point is pickled by name, so the worker imports this module."""
    bad = _Always(shard_range(engine, shard))
    monkeypatch.setattr(procpool, "_worker_main", partial(_worker_failing_records, bad))


@contextlib.contextmanager
def worker_fault_executor(engine, root, **executor_kw):
    """A process-mode :class:`~repro.exec.QueryExecutor` over ``engine``,
    its spool in ``root`` and its workers started through a healed
    :class:`WorkerFault`: yields ``(executor, fault)``.  The patch holds
    for the executor's life, since its pool starts at the first query
    that fans out (and respawns after a crash).  Starting a pool costs
    far more than a query, so one of these serves every worker-fault case
    of a module."""
    root = Path(root)
    fault = WorkerFault(root / "fault.json")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(procpool, "_worker_main", partial(_worker_failing_records, fault))
        with QueryExecutor(engine, exec_mode="process", storage_dir=root, **executor_kw) as executor:
            yield executor, fault


def fresh_policy(executor, **policy_kw) -> MetricsRegistry:
    """Give the executor's process runner a fresh no-sleep
    :class:`ResiliencePolicy` — fresh breakers — publishing into the
    registry returned."""
    registry = MetricsRegistry()
    executor.resilience = executor._runner.policy = ResiliencePolicy(
        sleep=lambda _s: None, registry=registry, **policy_kw
    )
    return registry


def settle(executor, timeout: float = 10.0) -> None:
    """Wait until no pool task is in flight: a refused or abandoned
    range's reply may still be on its way, and must land before the next
    case switches the fault."""
    pool, deadline = executor._runner.pool, time.monotonic() + timeout
    while pool is not None and pool._futures and time.monotonic() < deadline:
        time.sleep(0.01)


@contextlib.contextmanager
def _installed_hook(hook):
    persistence._save_hooks.append(hook)
    try:
        yield
    finally:
        persistence._save_hooks.remove(hook)


@contextlib.contextmanager
def record_save_stages(stages: list):
    """Append every save-stage label reached inside the block to ``stages``."""
    with _installed_hook(stages.append):
        yield stages


def save_stage_labels(relation, directory) -> list[str]:
    """Run one real save into ``directory``, returning its stage labels —
    the crash points a subsequent :func:`crash_at_stage` sweep can hit."""
    stages: list[str] = []
    with record_save_stages(stages):
        persistence.save_relation(relation, directory)
    return stages


@contextlib.contextmanager
def crash_at_stage(target: int | str):
    """Crash the save when it reaches a stage.

    ``target`` is either a stage index (0-based position in the save's
    stage sequence) or an exact stage label.
    """
    seen = 0

    def hook(stage: str) -> None:
        nonlocal seen
        if isinstance(target, int):
            if seen == target:
                raise SimulatedCrash(f"stage[{target}]={stage}")
            seen += 1
        elif stage == target:
            raise SimulatedCrash(stage)

    with _installed_hook(hook):
        yield


@contextlib.contextmanager
def crash_on_nth(label: str, n: int):
    """Crash on the ``n``-th (1-based) occurrence of ``label`` across all
    saves inside the block — e.g. kill the third batch of a bulk load."""
    seen = 0

    def hook(stage: str) -> None:
        nonlocal seen
        if stage == label:
            seen += 1
            if seen == n:
                raise SimulatedCrash(f"{label}#{n}")

    with _installed_hook(hook):
        yield


def truncate_file(path: str | Path, nbytes: int = 1) -> None:
    """Torn write: drop the final ``nbytes`` bytes of ``path``."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(len(data) - nbytes, 0)])


def flip_bit(path: str | Path, byte_offset: int = -1, bit: int = 0) -> None:
    """Bit rot: flip one bit at ``byte_offset`` (negative counts from the
    end, so the default hits payload rather than the .npy header)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    data[byte_offset] ^= 1 << bit
    path.write_bytes(bytes(data))


def live_manifest(root: str | Path) -> dict:
    """The relation directory's current manifest, parsed."""
    return json.loads((Path(root) / "manifest.json").read_text())


def data_file(root: str | Path, name: str) -> Path:
    """Path of column file ``name`` inside the live generation directory."""
    manifest = live_manifest(root)
    return Path(root) / manifest["directory"] / name


def corrupt_manifest_crc(root: str | Path, name: str) -> None:
    """Flip bits in the checksum the manifest stores for ``name``."""
    mpath = Path(root) / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["files"][name]["crc32"] ^= 0xFFFF
    mpath.write_text(json.dumps(manifest))
