"""Content-addressed on-disk artifact store for the experiment harness.

The harness's in-memory caches die with the interpreter, so every pytest
session, benchmark run, and CLI invocation used to rebuild testbeds,
samples, summaries, and EM weights from scratch. This module persists
those artifacts on disk, keyed by a stable fingerprint of the full
configuration that produced them (scale profile, dataset, sampler config,
seeds, pipeline version), so a repeat run skips straight to the cached
bytes.

Layout: one gzip-compressed JSON document per artifact at
``<root>/<kind>/<fingerprint>.json.gz``, where ``kind`` is one of
:data:`ARTIFACT_KINDS`. Each document carries the store format version,
its kind, and an echo of the configuration that keyed it (for human
inspection via ``repro cache``). Serialization of summaries, samples, and
documents reuses :mod:`repro.summaries.io` so the on-disk format stays
consistent with the library's public persistence API.

Failure policy: a missing, truncated, or otherwise corrupted entry is a
*cache miss*, never an error — the caller rebuilds and overwrites. Writes
are atomic (temp file + ``os.replace``) so a crashed run cannot leave a
half-written artifact behind.

Observability: every load/save books per-kind hit/miss/bytes counters
(``cache.hit.samples``, ``cache.bytes_read.samples``, …) on top of the
aggregate ``cache.*`` ones, records its latency in the
``store.load_seconds`` / ``store.save_seconds`` histograms, and — when a
trace collector is installed — emits a leaf span carrying the kind, byte
count, and hit/miss outcome. The same traffic is accumulated across runs
in a ``stats.json`` sidecar at the store root, which ``repro cache``
reports; sidecar updates merge deltas under an ``fcntl`` file lock so
concurrent ``--jobs`` workers cannot drop each other's increments, and
``clear()`` resets them.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from collections.abc import Mapping

try:  # POSIX file locking for the stats sidecar.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None
try:  # Windows file locking, the fcntl stand-in there.
    import msvcrt
except ImportError:  # pragma: no cover - POSIX platforms
    msvcrt = None

from repro.core.vocab import Vocabulary
from repro.evaluation.instrument import count, get_collector, get_instrumentation
from repro.index.engine import TextDatabase
from repro.summaries.io import (
    FORMAT_VERSION,
    document_from_dict,
    document_to_dict,
    sample_from_dict,
    sample_to_dict,
    summary_from_dict,
    summary_to_dict,
)

#: Artifact kinds the store recognises, in pipeline order.
ARTIFACT_KINDS = ("testbed", "samples", "summaries", "shrunk")

#: On-disk format version; bump on incompatible layout changes.
STORE_VERSION = 1

#: Version of the artifact-producing pipeline itself. Part of every
#: fingerprint, so changing the harness's algorithms invalidates caches
#: produced by older code even when the configuration is unchanged.
PIPELINE_VERSION = 2

#: Version of the in-memory/on-disk summary representation (the columnar
#: ``(ids, values)`` format of :mod:`repro.summaries.io`). Also part of
#: every fingerprint: dict-era cache entries become plain misses instead
#: of deserialization hazards.
REPRESENTATION_VERSION = FORMAT_VERSION


# -- fingerprinting --------------------------------------------------------------


def _canonical(value):
    """Reduce ``value`` to plain JSON types, deterministically.

    Dataclasses become sorted dicts, tuples become lists, dict keys are
    stringified; sets are rejected (iteration order would leak in).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (set, frozenset)):
        raise TypeError("sets have no canonical order; sort before hashing")
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def fingerprint(config: Mapping) -> str:
    """A stable hex digest of an artifact's full configuration.

    The digest covers an envelope of the caller's configuration plus the
    store, pipeline, and representation versions, so entries written by
    any incompatible era of the code — layout, algorithms, or summary
    representation — key differently and read as cache misses.
    """
    canonical = _canonical(
        {
            "config": dict(config),
            "store": STORE_VERSION,
            "pipeline": PIPELINE_VERSION,
            "representation": REPRESENTATION_VERSION,
        }
    )
    encoded = json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(encoded).hexdigest()[:20]


# -- artifact payload converters --------------------------------------------------


def testbed_databases_to_payload(databases: list[TextDatabase]) -> dict:
    """Serialize a testbed's databases (documents + true categories)."""
    return {
        "databases": [
            {
                "name": db.name,
                "category": list(db.category) if db.category else None,
                "documents": [
                    document_to_dict(doc) for doc in db.documents()
                ],
            }
            for db in databases
        ]
    }


def testbed_databases_from_payload(payload: Mapping) -> list[TextDatabase]:
    """Rebuild the databases of a persisted testbed."""
    databases = []
    for entry in payload["databases"]:
        category = entry["category"]
        databases.append(
            TextDatabase(
                name=entry["name"],
                documents=[
                    document_from_dict(doc) for doc in entry["documents"]
                ],
                category=tuple(category) if category is not None else None,
            )
        )
    return databases


def samples_to_payload(samples, classifications, sizes) -> dict:
    """Serialize per-database samples, classifications, size estimates."""
    return {
        "samples": {
            name: sample_to_dict(sample) for name, sample in samples.items()
        },
        "classifications": {
            name: list(path) for name, path in classifications.items()
        },
        "sizes": dict(sizes),
    }


def samples_from_payload(payload: Mapping):
    """Rebuild (samples, classifications, sizes) from a store payload."""
    samples = {
        name: sample_from_dict(entry)
        for name, entry in payload["samples"].items()
    }
    classifications = {
        name: tuple(path)
        for name, path in payload["classifications"].items()
    }
    sizes = {name: float(size) for name, size in payload["sizes"].items()}
    return samples, classifications, sizes


def _summary_set_to_payload(summaries) -> dict:
    """Serialize a named summary set with a single hoisted word list.

    Every member payload's id arrays index into the one ``"vocab"`` list,
    stored once per artifact instead of once per summary.
    """
    vocab = Vocabulary()
    payloads = {
        name: summary_to_dict(summary, vocab=vocab)
        for name, summary in summaries.items()
    }
    return {
        "summaries": payloads,
        "vocab": vocab.to_list(),
        "vocab_version": vocab.version,
    }


def _summary_set_from_payload(payload: Mapping) -> dict:
    """Rebuild a summary set; members share one Vocabulary instance.

    Legacy payloads (no hoisted ``"vocab"``) fall back to per-summary
    deserialization, which still handles embedded word lists and the
    version-1 dict format.
    """
    vocab = None
    if "vocab" in payload:
        vocab = Vocabulary(payload["vocab"])
        stored = payload.get("vocab_version")
        if stored is not None and stored != vocab.version:
            raise ValueError(
                f"summary-set word list digest mismatch: "
                f"stored {stored!r}, computed {vocab.version!r}"
            )
    return {
        name: summary_from_dict(entry, vocab=vocab)
        for name, entry in payload["summaries"].items()
    }


def summaries_to_payload(summaries, classifications) -> dict:
    """Serialize a cell's summary set plus its classifications."""
    payload = _summary_set_to_payload(summaries)
    payload["classifications"] = {
        name: list(path) for name, path in classifications.items()
    }
    return payload


def summaries_from_payload(payload: Mapping):
    """Rebuild (summaries, classifications) from a store payload."""
    summaries = _summary_set_from_payload(payload)
    classifications = {
        name: tuple(path)
        for name, path in payload["classifications"].items()
    }
    return summaries, classifications


def shrunk_to_payload(shrunk) -> dict:
    """Serialize shrunk summaries (mixture weights ride along)."""
    return _summary_set_to_payload(shrunk)


def shrunk_from_payload(payload: Mapping) -> dict:
    """Rebuild a cell's shrunk summaries from a store payload."""
    return _summary_set_from_payload(payload)


# -- the store --------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One artifact on disk, as listed by :meth:`ArtifactStore.entries`."""

    kind: str
    key: str
    bytes: int
    path: Path


#: Sidecar file at the store root accumulating traffic across runs.
STATS_FILENAME = "stats.json"

#: Per-kind traffic fields tracked in the sidecar and per-kind counters.
_STAT_FIELDS = ("hits", "misses", "corrupt", "saves", "bytes_read", "bytes_written")


def _observe_io(operation: str, kind: str, seconds: float, nbytes: int,
                hit: bool | None = None) -> None:
    """Book one store I/O into timers, histograms, and the active trace."""
    instrumentation = get_instrumentation()
    instrumentation.add_time(f"store.{operation}", seconds)
    instrumentation.observe(f"store.{operation}_seconds", seconds)
    collector = get_collector()
    if collector is not None:
        attrs = {"kind": kind, "bytes": nbytes}
        if hit is not None:
            attrs["hit"] = hit
        collector.leaf(f"store.{operation}", seconds, attrs)


class ArtifactStore:
    """Gzip-JSON artifact cache rooted at one directory."""

    def __init__(self, root: str | Path) -> None:
        import threading

        self.root = Path(root)
        #: In-process half of the sidecar lock (see ``_stats_lock``).
        self._stats_thread_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r})"

    def path_for(self, kind: str, key: str) -> Path:
        """Where the (kind, key) artifact lives on disk."""
        if kind not in ARTIFACT_KINDS:
            raise ValueError(f"kind must be one of {ARTIFACT_KINDS}")
        return self.root / kind / f"{key}.json.gz"

    # -- read ------------------------------------------------------------------

    def load(self, kind: str, key: str):
        """The payload stored under (kind, key), or None on any miss.

        Corruption — unreadable gzip, invalid JSON, wrong version or kind,
        missing fields downstream — is treated as a miss: the entry is
        counted under ``cache.corrupt`` and the caller rebuilds.
        """
        path = self.path_for(kind, key)
        if not path.exists():
            count("cache.miss")
            count(f"cache.miss.{kind}")
            self._record_traffic(kind, misses=1)
            return None
        start = time.perf_counter()
        try:
            raw_bytes = path.read_bytes()
            document = json.loads(gzip.decompress(raw_bytes))
        except (OSError, EOFError, ValueError):
            # gzip.BadGzipFile is an OSError; json errors are ValueErrors.
            count("cache.miss")
            count(f"cache.miss.{kind}")
            count("cache.corrupt")
            self._record_traffic(kind, misses=1, corrupt=1)
            return None
        if (
            not isinstance(document, dict)
            or document.get("store_version") != STORE_VERSION
            or document.get("kind") != kind
            or "payload" not in document
        ):
            count("cache.miss")
            count(f"cache.miss.{kind}")
            count("cache.corrupt")
            self._record_traffic(kind, misses=1, corrupt=1)
            return None
        elapsed = time.perf_counter() - start
        count("cache.hit")
        count(f"cache.hit.{kind}")
        count(f"cache.bytes_read.{kind}", len(raw_bytes))
        self._record_traffic(kind, hits=1, bytes_read=len(raw_bytes))
        _observe_io("load", kind, elapsed, len(raw_bytes), hit=True)
        return document["payload"]

    def load_artifact(self, kind: str, key: str, converter):
        """Load (kind, key) and rebuild it with ``converter``.

        A converter failure on a structurally valid document still counts
        as corruption — the entry was written by an incompatible or
        interrupted producer — and yields a miss.
        """
        payload = self.load(kind, key)
        if payload is None:
            return None
        try:
            return converter(payload)
        except (KeyError, TypeError, ValueError):
            count("cache.corrupt")
            self._record_traffic(kind, corrupt=1)
            return None

    # -- write -----------------------------------------------------------------

    def save(self, kind: str, key: str, payload: dict, config=None) -> Path:
        """Atomically persist ``payload`` under (kind, key)."""
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "store_version": STORE_VERSION,
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        if config is not None:
            document["config"] = _canonical(dict(config))
        start = time.perf_counter()
        data = gzip.compress(
            json.dumps(document, separators=(",", ":")).encode(),
            compresslevel=5,
        )
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        elapsed = time.perf_counter() - start
        count("cache.store")
        count(f"cache.store.{kind}")
        count(f"cache.bytes_written.{kind}", len(data))
        self._record_traffic(kind, saves=1, bytes_written=len(data))
        _observe_io("save", kind, elapsed, len(data))
        return path

    # -- persistent traffic stats ----------------------------------------------

    @property
    def stats_path(self) -> Path:
        """Where the cross-run traffic sidecar lives."""
        return self.root / STATS_FILENAME

    def stats(self) -> dict[str, dict[str, int]]:
        """Accumulated per-kind traffic totals ({} for a fresh store)."""
        try:
            document = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        kinds = document.get("kinds") if isinstance(document, dict) else None
        if not isinstance(kinds, dict):
            return {}
        totals: dict[str, dict[str, int]] = {}
        for kind in ARTIFACT_KINDS:
            entry = kinds.get(kind)
            if isinstance(entry, dict):
                totals[kind] = {
                    field: int(entry.get(field, 0)) for field in _STAT_FIELDS
                }
        return totals

    @contextmanager
    def _stats_lock(self):
        """An exclusive inter-process lock around sidecar updates.

        The sidecar is a read-modify-write of shared totals; without the
        lock, concurrent ``--jobs`` workers interleave their read and
        write phases and silently drop each other's increments. A
        dedicated lock file (never replaced, unlike the sidecar itself)
        carries the exclusion: ``fcntl.flock`` on POSIX,
        ``msvcrt.locking`` on Windows. With neither available the lock
        degrades to an in-process ``threading.Lock`` — threads within one
        process still serialize; only cross-process exclusion is lost,
        matching what such a platform can express with the stdlib.
        """
        with self._stats_thread_lock:
            if fcntl is None and msvcrt is None:
                yield
                return
            lock_path = self.root / f".{STATS_FILENAME}.lock"
            with open(lock_path, "a+") as lock_file:
                if fcntl is not None:
                    fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
                else:  # pragma: no cover - exercised on Windows only
                    lock_file.seek(0)
                    msvcrt.locking(lock_file.fileno(), msvcrt.LK_LOCK, 1)
                try:
                    yield
                finally:
                    if fcntl is not None:
                        fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)
                    else:  # pragma: no cover - Windows only
                        lock_file.seek(0)
                        msvcrt.locking(
                            lock_file.fileno(), msvcrt.LK_UNLCK, 1
                        )

    def _record_traffic(self, kind: str, **increments: int) -> None:
        """Fold increments into the sidecar (best-effort, never raises).

        The read-merge-write runs under :meth:`_stats_lock`, so deltas
        from concurrent workers accumulate instead of racing.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._stats_lock():
                totals = self.stats()
                entry = totals.setdefault(
                    kind, {field: 0 for field in _STAT_FIELDS}
                )
                for field, amount in increments.items():
                    entry[field] = entry.get(field, 0) + int(amount)
                tmp = self.stats_path.with_name(
                    f".{STATS_FILENAME}.tmp{os.getpid()}"
                )
                tmp.write_text(
                    json.dumps({"version": 1, "kinds": totals}, indent=0),
                    encoding="utf-8",
                )
                os.replace(tmp, self.stats_path)
        except OSError:  # pragma: no cover - stats must never break caching
            pass

    # -- inspection / maintenance ----------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Every artifact currently on disk, sorted by kind then key."""
        found: list[StoreEntry] = []
        for kind in ARTIFACT_KINDS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json.gz")):
                found.append(
                    StoreEntry(
                        kind=kind,
                        key=path.name[: -len(".json.gz")],
                        bytes=path.stat().st_size,
                        path=path,
                    )
                )
        return found

    def clear(self) -> int:
        """Delete every artifact (and the traffic sidecar); returns the
        number of artifacts removed."""
        removed = 0
        for entry in self.entries():
            entry.path.unlink(missing_ok=True)
            removed += 1
        self.stats_path.unlink(missing_ok=True)
        return removed
