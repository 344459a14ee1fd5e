"""Crash-safe disk persistence for the master relation.

Stores each column as ``.npy`` files — two per measure column (the packed
non-NULL values and the bitmap words that rank them, the layout the column
has in RAM), one word file per view bitmap — plus a versioned JSON
manifest.  This mirrors a column store's one-file-per-column layout and
lets the Table 2 / Figure 4 benchmarks report genuine size-on-disk numbers.

A store holds no shard count: the relation saves its columns once, and a
process-pool worker folds whatever record range a task names, a slice of
the one mapped store.  Format-4 stores written with a ``shard_records``
manifest key still load; the key is ignored.

Durability model (write-ahead-by-rename):

* every save writes a fresh **generation directory** ``gen-NNNNNN/`` next
  to the manifest; column files are first written into a hidden temp
  directory and published with one atomic ``os.replace``;
* the root ``manifest.json`` names the live generation and carries the
  size and CRC32 of every file in it; it is replaced atomically, so the
  manifest swap is the single commit point — a crash at *any* earlier
  instant leaves the previous manifest pointing at the previous
  generation, which is never modified in place;
* committed saves garbage-collect superseded generations and stale temp
  directories; a crashed save's debris is swept by the next save.

``load_relation`` verifies each file's size and checksum against the
manifest before deserializing, raising :class:`~repro.errors.CorruptionError`
/ :class:`~repro.errors.ManifestError` for base columns.  A damaged *view*
file is not fatal: the view is dropped with a warning (recorded in
``dropped_views``) and queries fall back to base bitmaps.
"""

from __future__ import annotations

import json
import os
import shutil
import warnings
import zlib
from collections.abc import Callable
from pathlib import Path as FsPath

import numpy as np

from ..errors import CorruptionError, ManifestError, PersistenceError
from .bitmap import Bitmap
from .column import MeasureColumn
from .table import MasterRelation

__all__ = [
    "save_relation",
    "load_relation",
    "relation_disk_usage",
    "storage_generation",
    "RelationBitmapReader",
    "FORMAT_VERSION",
]

_MANIFEST = "manifest.json"
_GEN_PREFIX = "gen-"
_TMP_PREFIX = ".tmp-"
FORMAT_VERSION = 4

# Fault-injection seam: each hook is called with a stage label at every
# point during a save where a crash would leave the directory in a distinct
# on-disk state (tests/faultinject.py raises from here to simulate crashes).
_save_hooks: list[Callable[[str], None]] = []


def _notify(stage: str) -> None:
    for hook in list(_save_hooks):
        hook(stage)


def _crc32_of(path: FsPath) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc


def _try_read_manifest(root: FsPath) -> dict | None:
    """Best-effort read of the current manifest (None when absent/corrupt);
    used by save to pick the next generation number without failing on a
    damaged predecessor."""
    path = root / _MANIFEST
    if not path.is_file():
        return None
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return manifest if isinstance(manifest, dict) else None


def storage_generation(directory: str | FsPath) -> int | None:
    """The committed generation of a persisted relation; None when
    ``directory`` holds no readable manifest.  A cheap staleness probe:
    workers compare it against a task's stamp before re-attaching."""
    manifest = _try_read_manifest(FsPath(directory))
    if manifest is None or "generation" not in manifest:
        return None
    try:
        return int(manifest["generation"])
    except (TypeError, ValueError):
        return None


def _collect_garbage(root: FsPath, keep: set[str]) -> None:
    """Remove generation/temp directories (and staged manifests) that are
    not in ``keep`` — debris from superseded or crashed saves."""
    for child in root.iterdir():
        if child.name in keep or child.name == _MANIFEST:
            continue
        if child.is_dir() and child.name.startswith((_GEN_PREFIX, _TMP_PREFIX)):
            shutil.rmtree(child, ignore_errors=True)
        elif child.is_file() and child.name == _MANIFEST + ".tmp":
            child.unlink(missing_ok=True)


def save_relation(
    relation: MasterRelation,
    directory: str | FsPath,
    app_meta: dict | None = None,
) -> None:
    """Atomically write the relation's columns and views under ``directory``.

    The previous on-disk relation (if any) stays loadable until the final
    manifest swap; an interrupted save never damages it.  ``app_meta`` is
    an optional JSON-serializable payload stored inside the manifest (the
    engine keeps its catalog there), so application metadata commits in
    the same atomic swap as the column data.
    """
    root = FsPath(directory)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(f"cannot create relation directory {root}: {exc}") from None
    previous = _try_read_manifest(root)
    prev_gen = previous.get("directory") if previous else None
    generation = int(previous.get("generation", 0)) + 1 if previous else 1
    gen_name = f"{_GEN_PREFIX}{generation:06d}"
    _collect_garbage(root, keep={prev_gen} if prev_gen else set())

    tmp_dir = root / f"{_TMP_PREFIX}{gen_name}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir()
    files: dict[str, dict[str, int]] = {}

    def _write_array(name: str, array: np.ndarray) -> None:
        path = tmp_dir / name
        np.save(path, array)
        files[name] = {"size": path.stat().st_size, "crc32": _crc32_of(path)}
        _notify(f"wrote:{name}")

    def _write_column(stem: str, column: MeasureColumn) -> None:
        # The column as it sits in RAM: packed values, and the validity
        # words verbatim so a read-only attachment (procpool workers) can
        # mmap the bitmap zero-copy.
        _write_array(f"{stem}_vals.npy", column.packed())
        _write_array(f"{stem}_bits.npy", column.validity.words())

    for edge_id in relation.element_ids():
        _write_column(f"m{edge_id}", relation.column_for_persistence(edge_id))
    for name, bitmap in relation.graph_views_for_persistence().items():
        _write_array(f"gv_{name}.npy", bitmap.words())
    for name, column in relation.aggregate_views_for_persistence().items():
        _write_column(f"av_{name}", column)
    _notify("columns-written")

    manifest = {
        "format_version": FORMAT_VERSION,
        "generation": generation,
        "directory": gen_name,
        "n_records": relation.n_records,
        "partition_width": relation.partition_width,
        "element_ids": relation.element_ids(),
        "graph_views": relation.graph_view_names(),
        "aggregate_views": relation.aggregate_view_names(),
        "files": files,
    }
    if app_meta is not None:
        manifest["app_meta"] = app_meta
    os.replace(tmp_dir, root / gen_name)
    _notify("generation-published")
    staged = root / (_MANIFEST + ".tmp")
    staged.write_text(json.dumps(manifest))
    _notify("manifest-staged")
    os.replace(staged, root / _MANIFEST)  # the commit point
    _notify("committed")
    _collect_garbage(root, keep={gen_name})
    _notify("cleaned")


_REQUIRED_KEYS = (
    "format_version",
    "generation",
    "directory",
    "n_records",
    "partition_width",
    "element_ids",
    "graph_views",
    "aggregate_views",
    "files",
)


def _read_manifest(root: FsPath) -> dict:
    if not root.is_dir():
        raise PersistenceError(f"relation directory {root} does not exist")
    path = root / _MANIFEST
    if not path.is_file():
        raise PersistenceError(f"{root} is not a relation directory (no {_MANIFEST})")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in manifest]
    if missing:
        raise ManifestError(f"{path}: manifest missing fields {missing}")
    version = manifest["format_version"]
    if version != FORMAT_VERSION:
        raise ManifestError(
            f"{path}: unsupported manifest format_version {version!r} "
            f"(this build reads version {FORMAT_VERSION}); re-save the relation"
        )
    return manifest


def _generation_dir(root: FsPath, manifest: dict) -> FsPath:
    """The live generation directory the manifest names; missing is corrupt."""
    gen_dir = root / str(manifest["directory"])
    if not gen_dir.is_dir():
        raise CorruptionError(
            f"{root}: manifest names generation {manifest['directory']!r} "
            "but that directory is missing"
        )
    return gen_dir


def _checked_bitmap(vals, bits, n_records: int, stem: FsPath) -> Bitmap:
    """A column's validity bitmap from its two arrays, refusing what a rank
    lookup cannot survive: a bit past ``n_records``, or values that do not
    number the set bits.  Reads the bitmap words, not the values."""
    try:
        bitmap = Bitmap.from_packed(n_records, bits)
        if vals.shape != (bitmap.count(),):
            raise ValueError(
                f"packed values of shape {vals.shape} for {bitmap.count()} set validity bits"
            )
    except ValueError as exc:
        raise CorruptionError(
            f"{stem}_*.npy: inconsistent column arrays: {exc}"
        ) from None
    return bitmap


def load_relation(directory: str | FsPath) -> MasterRelation:
    """Reconstruct a relation previously written by :func:`save_relation`.

    Every base-column file is checked against the manifest's size and CRC32
    before use; integrity failures raise :class:`CorruptionError`.  A
    damaged graph- or aggregate-view file only drops that view — a warning
    is emitted, the drop is recorded in ``relation.dropped_views``, and
    query evaluation degrades to the base ``b_i`` bitmaps.  (For a
    zero-copy *bitmap* attachment, see :class:`RelationBitmapReader`.)
    """
    root = FsPath(directory)
    manifest = _read_manifest(root)
    gen_dir = _generation_dir(root, manifest)
    files = manifest["files"]
    if not isinstance(files, dict):
        raise ManifestError(f"{root}/{_MANIFEST}: 'files' must be an object")

    def _load_array(name: str) -> np.ndarray:
        entry = files.get(name)
        if not isinstance(entry, dict) or "size" not in entry or "crc32" not in entry:
            raise ManifestError(f"{root}/{_MANIFEST}: no integrity entry for {name!r}")
        path = gen_dir / name
        if not path.is_file():
            raise CorruptionError(f"{path}: column file is missing")
        size = path.stat().st_size
        if size != entry["size"]:
            raise CorruptionError(
                f"{path}: size {size} != manifest size {entry['size']} (torn write?)"
            )
        crc = _crc32_of(path)
        if crc != entry["crc32"]:
            raise CorruptionError(f"{path}: CRC32 mismatch (corrupted data)")
        try:
            return np.load(path)
        except Exception as exc:  # np.load raises assorted ValueError/EOFError
            raise CorruptionError(f"{path}: unreadable .npy payload: {exc}") from None

    n_records = int(manifest["n_records"])

    def _load_column(stem: str) -> MeasureColumn:
        vals = _load_array(f"{stem}_vals.npy")
        bits = _load_array(f"{stem}_bits.npy")
        return MeasureColumn(vals, _checked_bitmap(vals, bits, n_records, gen_dir / stem))

    relation = MasterRelation(partition_width=int(manifest["partition_width"]))
    relation.set_record_count(n_records)
    for edge_id in manifest["element_ids"]:
        relation.put_column(edge_id, _load_column(f"m{edge_id}"))

    def _drop_view(name: str, exc: Exception) -> None:
        reason = str(exc)
        relation.dropped_views.append((name, reason))
        warnings.warn(
            f"dropping damaged view {name!r} (queries fall back to base "
            f"bitmaps): {reason}",
            RuntimeWarning,
            stacklevel=3,
        )

    for name in manifest["graph_views"]:
        try:
            words = _load_array(f"gv_{name}.npy").astype(np.uint64)
            relation.add_graph_view(name, Bitmap(n_records, words))
        except (PersistenceError, ValueError, IndexError) as exc:
            _drop_view(name, exc)
    for name in manifest["aggregate_views"]:
        try:
            relation.add_aggregate_view(name, _load_column(f"av_{name}"))
        except (PersistenceError, ValueError, IndexError) as exc:
            _drop_view(name, exc)
    relation.app_meta = manifest.get("app_meta")
    return relation


class RelationBitmapReader:
    """Zero-copy, read-only attachment to one persisted relation's bitmaps.

    The worker-side open path of the process pool: instead of
    :func:`load_relation` (which reads and checksums every column), this
    memory-maps exactly the files a structural conjunction needs —
    element validity bitmaps, graph-view words, aggregate-view validity —
    with ``np.load(mmap_mode="r")``.  Nothing is copied on attach:

    * element / aggregate-view bitmaps come from the columns' bitmap files
      (``m{id}_bits.npy`` / ``av_{name}_bits.npy``) wrapped directly via
      :meth:`Bitmap.from_packed` — the bitmap's words *are* the mapped
      file pages, shared across every attachment through the OS page
      cache;
    * graph views map ``gv_{name}.npy`` the same way.

    A worker folds a task's record range with :func:`~.table.and_refs`
    over :meth:`ref_bitmap`: the range's words are a view of the mapped
    words when it starts on a 64-record boundary.

    The mapping is read-only: any write attempt through a returned bitmap
    raises, and the attachment never dirties a page (no write-back).
    Checksums are intentionally skipped — verifying would read every byte
    and defeat the laziness; the atomic generation-swap protocol already
    guarantees a committed generation is never modified in place.  What is
    checked, per column and on first use, is :func:`_checked_bitmap`: one
    popcount over the bitmap's words (pages the conjunction reads anyway)
    against the length in the values file's header — the values themselves
    are mapped, never read.
    """

    def __init__(self, directory: str | FsPath):
        root = FsPath(directory)
        manifest = _read_manifest(root)
        self._gen_dir = _generation_dir(root, manifest)
        self.generation = int(manifest["generation"])
        self.n_records = int(manifest["n_records"])
        self._element_ids = {int(i) for i in manifest["element_ids"]}
        self._graph_views = set(manifest["graph_views"])
        self._aggregate_views = set(manifest["aggregate_views"])
        self._bitmaps: dict[tuple[str, object], Bitmap] = {}

    def _mmap(self, name: str) -> np.ndarray:
        path = self._gen_dir / name
        try:
            return np.load(path, mmap_mode="r")
        except Exception as exc:
            raise CorruptionError(f"{path}: unreadable .npy payload: {exc}") from None

    def _column_bitmap(self, stem: str) -> Bitmap:
        return _checked_bitmap(
            self._mmap(f"{stem}_vals.npy"), self._mmap(f"{stem}_bits.npy"),
            self.n_records, self._gen_dir / stem,
        )

    def ref_bitmap(self, kind: str, token) -> Bitmap | None:
        """The mapped bitmap a planner ref names — same contract as
        :meth:`MasterRelation.ref_bitmap`: None for an element the store
        never saw, a ``KeyError`` for a missing view."""
        key = (kind, token)
        cached = self._bitmaps.get(key)
        if cached is None:
            if kind == "element":
                if token not in self._element_ids:
                    return None
                cached = self._column_bitmap(f"m{token}")
            elif kind == "graph-view":
                if token not in self._graph_views:
                    raise KeyError(f"no graph view {token!r}")
                cached = Bitmap.from_packed(self.n_records, self._mmap(f"gv_{token}.npy"))
            else:
                if token not in self._aggregate_views:
                    raise KeyError(f"no aggregate view {token!r}")
                cached = self._column_bitmap(f"av_{token}")
            self._bitmaps[key] = cached
        return cached


def relation_disk_usage(directory: str | FsPath) -> int:
    """Total bytes used by a persisted relation directory (all files,
    including the manifest and the live generation)."""
    root = FsPath(directory)
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())
