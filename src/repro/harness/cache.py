"""Persistent content-addressed report cache.

Every simulation in this reproduction is bit-for-bit deterministic in its
full configuration (workload, scheme, checkpointing, detection, seed,
target, host), which makes completed :class:`SimulationReport` objects
safe to reuse *across processes and across sessions*: re-running a paper
table, or re-running ``repro bench`` after an unrelated change, should be
a near-instant cache hit instead of minutes of re-simulation.

The cache is keyed by a **schema-versioned content hash** of the full
configuration:

- :class:`RunSpec` captures everything that can influence a run;
- :func:`fingerprint` renders it (recursively, with class names, floats
  via ``float.hex``) into canonical JSON;
- the SHA-256 of ``{"schema", "semantics", "spec"}`` is the key.

``semantics`` is a tag derived from ``benchmarks/golden_kernel.json``:
the golden digests *are* the repo's statement of simulation semantics, so
re-recording them (``repro bench --update-golden`` after an intentional
semantics change) automatically invalidates every cached report without
anyone having to remember ``repro cache clear``.  An installation without
the checkout's ``benchmarks/`` hashes the simulation sources it ships
instead, so a changed kernel still never reads an older kernel's reports.

Storage layout (default ``~/.cache/repro``, override with
``$REPRO_CACHE_DIR`` or ``$XDG_CACHE_HOME``)::

    <root>/reports/<key[:2]>/<key>.json

Each entry stores the report's plain-data form plus the measured wall
time, which :mod:`repro.harness.pool` reuses as the recorded-cost hint
for longest-job-first scheduling.  Writes are atomic (tmp + rename) and
reads treat any undecodable file as a miss, so concurrent pool workers
can share the cache without locking.

A long-lived :class:`ReportCache` (a daemon's, the coordinator's) is
asked for the same few entries over and over, so each instance keeps its
last :data:`ENTRY_MEMO_SIZE` loaded entries keyed on the file's
``(st_ino, st_size, st_mtime_ns)``: a repeat :meth:`ReportCache.get`
costs one ``os.stat`` and one digest re-derivation instead of a file
read, a JSON parse and a report rebuild.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import pathlib
import shutil
from typing import Any, Dict, Iterator, NamedTuple, Optional, Tuple

from repro.config import (
    CheckpointConfig,
    HostConfig,
    SchemeConfig,
    TargetConfig,
)
from repro.core.report import SimulationReport
from repro.errors import ConfigError
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry
from repro.util import LruMemo, atomic_write

__all__ = [
    "CACHE_SCHEMA",
    "ENTRY_MEMO_SIZE",
    "ORPHANED_EPOCHS_DIR",
    "CacheEntry",
    "ReportCache",
    "RunSpec",
    "default_cache_dir",
    "field_names",
    "fingerprint",
    "package_semantics_tag",
    "semantics_tag",
    "spec_key",
]

#: Bumped whenever the entry layout or key derivation changes shape.
CACHE_SCHEMA = 1

#: Loaded entries one :class:`ReportCache` instance keeps in memory.
ENTRY_MEMO_SIZE = 256

#: Where the removed time-parallel layer kept recorded machine
#: states (megabytes per spec, beside report entries of a few KB).
#: Nothing writes or reads it any more and ``info`` / ``prune`` never
#: counted it; :meth:`ReportCache.clear` removes a leftover one.
ORPHANED_EPOCHS_DIR = "epochs"


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """The complete configuration of one simulation run.

    Frozen and hashable, so it doubles as the in-memory memo key; the
    persistent key is :func:`spec_key`.  ``target`` and ``host`` are the
    *resolved* configurations (never None): defaults are baked in by the
    caller so that a change of library default cannot alias two different
    runs onto one cache entry.
    """

    benchmark: str
    scheme: SchemeConfig
    scale: float
    checkpoint: Optional[CheckpointConfig]
    detection: bool
    seed: int
    num_threads: int
    target: TargetConfig
    host: HostConfig

    def __post_init__(self) -> None:
        # Workloads clamp a tiny scale to their minimum size, so scale 0
        # and -1 would run one workload under two cache keys; NaN and inf
        # and zero threads would fail only once the run starts.
        if self.num_threads < 1:
            raise ConfigError(f"num_threads must be >= 1, got {self.num_threads}")
        if not 0 < self.scale < math.inf:
            raise ConfigError(f"scale must be finite and > 0, got {self.scale}")


@functools.lru_cache(maxsize=None)
def field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """The field names of a dataclass type in declaration order, ``None``
    for any other type.  Cached per class: the canonical encoders ask for
    every value they walk."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def fingerprint(obj) -> object:
    """Render a configuration value as canonical plain data.

    Dataclasses carry their class name (``SlackConfig(bound=8)`` and a
    hypothetical other scheme with a ``bound=8`` field must not collide);
    floats are rendered with ``float.hex`` so the fingerprint is exact to
    the last ulp.
    """
    names = field_names(type(obj))
    if names is not None:
        data = {"__type__": type(obj).__name__}
        for name in names:
            data[name] = fingerprint(getattr(obj, name))
        return data
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [fingerprint(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): fingerprint(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    # Opaque config payloads (e.g. a future L2Config.dram object) fall
    # back to repr: stable enough for hashing, never silently aliased.
    return f"{type(obj).__name__}:{obj!r}"


_semantics_tag_cache: Optional[str] = None

#: The subpackages whose sources decide what a run computes.
SIMULATION_PACKAGES = ("config", "core", "cpu", "isa", "memory", "sync", "util", "workloads")


def semantics_tag() -> str:
    """The repo's simulation-semantics version (:func:`package_semantics_tag`
    of this installation), computed once per process."""
    global _semantics_tag_cache
    if _semantics_tag_cache is None:
        _semantics_tag_cache = package_semantics_tag(pathlib.Path(__file__).resolve().parents[1])
    return _semantics_tag_cache


def package_semantics_tag(package: pathlib.Path) -> str:
    """The semantics tag of the ``repro`` package at ``package``.

    In a checkout, the hash of its golden digest matrix: it changes
    exactly when ``--update-golden`` re-records goldens, invalidating
    every cached report keyed under the old semantics.  Without one (an
    installed package), the hash of the simulation sources shipped in
    :data:`SIMULATION_PACKAGES`, C included: any kernel change moves it.
    """
    golden = package.parents[1] / "benchmarks" / "golden_kernel.json"
    try:
        return hashlib.sha256(golden.read_bytes()).hexdigest()[:16]
    except OSError:
        pass
    digest = hashlib.sha256()
    for name in SIMULATION_PACKAGES:
        sources = [*(package / name).rglob("*.py"), *(package / name).rglob("*.c")]
        for path in sorted(sources):
            digest.update(path.relative_to(package).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def spec_key(spec: RunSpec) -> str:
    """The persistent cache key: SHA-256 over the schema version, the
    semantics tag, and the full configuration fingerprint."""
    payload = {
        "schema": CACHE_SCHEMA,
        "semantics": semantics_tag(),
        "spec": fingerprint(spec),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return pathlib.Path(xdg) / "repro"
    return pathlib.Path.home() / ".cache" / "repro"


class CacheEntry(NamedTuple):
    """One stored run: the reconstructed report and its recorded cost.

    ``payload`` is ``report.to_dict()`` as of the load.  Repeat reads of
    one :class:`ReportCache` return the same entry, so ``report`` and
    ``payload`` are shared: treat both as read-only.
    """

    report: SimulationReport
    wall_s: float
    digest: str
    payload: Dict[str, Any]


def _parse_entry(text: str) -> CacheEntry:
    """Decode one stored entry; ``ValueError``/``KeyError``/``TypeError``
    on anything that is not a current-schema document whose report
    reproduces its recorded digest (truncated write, report-schema
    drift, garbage)."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
        raise ValueError("cache schema mismatch")
    report = SimulationReport.from_dict(doc["report"])
    entry = CacheEntry(report, float(doc["wall_s"]), doc["digest"], report.to_dict())
    if entry.digest != report.digest():
        raise ValueError("stored report does not reproduce its digest")
    return entry


class ReportCache:
    """On-disk report store shared by the runner, the pool, and bench."""

    def __init__(
        self,
        root: Optional[pathlib.Path] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self._reports = self.root / "reports"
        self._memo: LruMemo[str, Tuple[Tuple[int, int, int], CacheEntry]] = LruMemo(
            ENTRY_MEMO_SIZE
        )
        # A daemon passes its registry (and reads on its loop only), so
        # `health` shows the hit path; everyone else counts into the void.
        self._memo_hits = metrics.counter("store.entry_memo_hits")
        self._io_errors = metrics.counter("store.io_errors")

    def _entry_path(self, key: str) -> pathlib.Path:
        return self._reports / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #

    def get(self, key: str) -> Optional[CacheEntry]:
        """Load an entry; a corrupt file is dropped (miss).

        Every entry returned reproduces its recorded digest, whether it
        came from disk or from the memo: a memoized report a caller has
        mutated is forgotten and read again.  An I/O error other than
        "no such file" is a counted miss that leaves the file alone — the
        store may be shared, and this node's ``EMFILE`` is not the
        fleet's corruption.
        """
        path = self._entry_path(key)
        try:
            stat = os.stat(path)
            signature = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
            memoized = self._memo.get(key)
            if (
                memoized is not None
                and memoized[0] == signature
                and memoized[1].digest == memoized[1].report.digest()
            ):
                self._memo_hits.inc()
                return memoized[1]
            self._memo.drop(key)
            try:
                entry = _parse_entry(path.read_text())
            except (ValueError, KeyError, TypeError):
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
        except FileNotFoundError:
            self._memo.drop(key)
            return None
        except OSError:
            self._io_errors.inc()
            return None
        self._memo.put(key, (signature, entry))
        return entry

    def wall_hint(self, key: str) -> Optional[float]:
        """Recorded wall seconds for a key, without validating the report
        (used only for longest-job-first ordering)."""
        path = self._entry_path(key)
        try:
            return float(json.loads(path.read_text())["wall_s"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, report: SimulationReport, wall_s: float) -> None:
        """Store one run atomically; cache writes are best-effort."""
        path = self._entry_path(key)
        doc = {
            "schema": CACHE_SCHEMA,
            "semantics": semantics_tag(),
            "key": key,
            "digest": report.digest(),
            "wall_s": wall_s,
            "report": report.to_dict(),
        }
        try:
            atomic_write(path, json.dumps(doc, separators=(",", ":")).encode("utf-8"))
        except OSError:
            pass

    # ------------------------------------------------------------------ #

    def _entry_files(self) -> Iterator[pathlib.Path]:
        """Every stored entry.  A ``.tmp-*`` name is a writer's in-flight
        file (or one an older version leaked), never an entry."""
        for path in self._reports.glob("*/*.json"):
            if not path.name.startswith(".tmp-"):
                yield path

    def info(self) -> Dict[str, object]:
        """Entry count, total bytes, and location (for ``repro cache info``)."""
        entries = 0
        total_bytes = 0
        for path in self._entry_files():
            try:
                total_bytes += path.stat().st_size
                entries += 1
            except OSError:
                pass
        return {
            "path": str(self.root),
            "schema": CACHE_SCHEMA,
            "semantics": semantics_tag(),
            "entries": entries,
            "bytes": total_bytes,
        }

    def prune(self, max_bytes: int, dry_run: bool = False) -> "tuple[int, int]":
        """Evict least-recently-used entries until the cache fits.

        "Used" is the file mtime: :meth:`put` creates the file and every
        OS keeps mtime on rewrite, so oldest-mtime is oldest-written;
        long-lived daemons call this to bound on-disk growth.  With
        ``dry_run`` nothing is deleted — the return value reports what a
        real prune *would* evict, which matters before pointing a whole
        worker fleet at one shared store.  Returns ``(entries_removed,
        bytes_freed)``.
        """
        entries = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        freed = 0
        entries.sort()  # oldest mtime first
        for _, size, path in entries:
            if total - freed <= max_bytes:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed += 1
            freed += size
        return removed, freed

    def clear(self) -> int:
        """Delete every entry (and a leftover :data:`ORPHANED_EPOCHS_DIR`
        tree); returns the number of entries removed."""
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for sub in self._reports.glob("*"):
            try:
                sub.rmdir()
            except OSError:
                pass
        shutil.rmtree(self.root / ORPHANED_EPOCHS_DIR, ignore_errors=True)
        return removed
