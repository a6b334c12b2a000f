"""Shared-memory snapshot segments for multi-process serving (DESIGN.md §5f).

A warmed :class:`~repro.serving.lifecycle.CellSnapshot` is, by byte
count, almost entirely its score matrices' column stores (per regime:
``indptr``, int32 row ids and float64 values, plus row defaults, bound
arrays and the presence/cw side arrays). This module flat-packs those
buffers into one contiguous ``multiprocessing.shared_memory``
segment and describes the layout with a small JSON *manifest*, so any
number of worker processes can map the same physical pages read-only and
score against them zero-copy:

* :func:`pack_arrays` — lay a named dict of numpy arrays end to end
  (64-byte aligned) in a fresh segment; returns ``(manifest, segment)``.
  The manifest records each array's offset/dtype/shape and a SHA-256
  digest of the whole used byte range.
* :func:`attach` — map a segment named by a manifest back into read-only
  numpy views, *verifying the digest first*: a worker never serves from
  a segment whose bytes are not exactly what the publisher packed
  (truncated unlink race, name collision, torn write — all become a
  loud :class:`SegmentIntegrityError`, not silent wrong scores).
* :func:`publish_snapshot` / :func:`adopt_snapshot` — the metasearcher-
  level pair: collect every built score-matrix buffer (via
  ``SummarySetMatrix.export_arrays``), pack them, and rebind the
  publisher's own matrices onto the shared views (so parent and forked
  workers literally share pages); adopt maps the manifest back into a
  receiver's matrices (``adopt_arrays``) before its first select, so the
  receiver never builds a store locally.

Manifest format (plain JSON, schema 3)::

    {"schema": 3, "segment": "repro_shm_<pid>_<epoch>_<nonce>",
     "digest": "<sha256 hex of bytes [0, total_bytes)>",
     "total_bytes": N, "epoch": E,
     "arrays": {"set:plain/indptr.df":
                    {"offset": 0, "dtype": "int64", "shape": [4097]},
                "set:plain/rows.df":
                    {"offset": 32832, "dtype": "int32", "shape": [11000]},
                ...}}

Array keys are ``<matrix role>/<field>`` where the role comes from
:meth:`~repro.selection.metasearcher.Metasearcher.engine_matrices` —
one matrix per summary set (``set:plain``/``set:shrunk``), shared by all
algorithms, so publisher and attacher agree across processes by
construction. Each built regime packs every field of its column store
(:data:`~repro.selection.batch.STORE_FIELDS`: ``indptr``, ``rows``,
``values``, ``defaults`` and the ``rowmax``/``colmax``/``groupmax``
bounds the pruned top-k engine scores against), digest-checked like
every other buffer; ``adopt_arrays`` refuses a store that arrives
incomplete or malformed.

Cleanup discipline: the *publisher* owns the segment name — only it ever
calls :meth:`SnapshotSegment.unlink`. Attachers close their mapping when
their snapshot drains. Every live segment is tracked in
:data:`_LIVE_SEGMENTS` and unlinked by an ``atexit`` hook as a last
resort, so a crashed publisher does not orphan ``/dev/shm`` entries.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import secrets
from collections.abc import Mapping
from multiprocessing import shared_memory

import numpy as np

#: Manifest schema version. 3: each matrix regime is a sparse column
#: store (``indptr``/``rows``/``values`` with defaults and bounds) —
#: schema-2 manifests (dense ``dense.<regime>`` stacks) and older are
#: not adoptable and fail loudly.
SCHEMA_VERSION = 3

#: Prefix for every segment this module creates — greppable in
#: ``/dev/shm`` and asserted clean by the CI worker-smoke leg.
SEGMENT_PREFIX = "repro_shm"

#: Byte alignment of each array inside the segment (numpy is happiest —
#: and gathers fastest — on cache-line-aligned starts).
ALIGNMENT = 64


class SegmentIntegrityError(RuntimeError):
    """A segment's bytes do not match its manifest digest."""


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering it with the resource tracker.

    ``SharedMemory(name=...)`` registers the name with the resource
    tracker even when only attaching (bpo-39959). That is wrong for us
    twice over: a forked worker shares the publisher's tracker daemon, so
    its attach-then-unregister would strip the publisher's own create
    registration (the tracker then KeyErrors on the publisher's unlink);
    and an independent attacher's tracker would *unlink a live segment*
    when the attacher exits. Ownership stays clean only if attaching is
    invisible to tracking — create registers, unlink unregisters, attach
    touches nothing. Python 3.13 exposes this as ``track=False``; here we
    suppress the register call for the attach's duration.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SnapshotSegment:
    """One owned or attached shared-memory segment.

    Thin lifecycle wrapper over ``SharedMemory``: ``close()`` is
    idempotent and safe while numpy views are still alive (it defers to
    garbage collection in that case rather than raising ``BufferError``
    mid-request), ``unlink()`` is publisher-only and also idempotent.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, owner: bool
    ) -> None:
        self._segment = segment
        self.owner = owner
        self.name = segment.name
        self._closed = False
        self._unlinked = False

    @property
    def buf(self) -> memoryview:
        return self._segment.buf

    def close(self) -> None:
        """Drop this process's mapping (keeps the segment itself alive)."""
        if self._closed:
            return
        try:
            self._segment.close()
            self._closed = True
        except BufferError:
            # Views over the mapping are still referenced (an in-flight
            # request's snapshot). The mapping is released when the last
            # view is garbage collected; nothing leaks system-wide as
            # long as the publisher unlinks the name.
            pass

    def unlink(self) -> None:
        """Remove the segment name system-wide (publisher only)."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        _LIVE_SEGMENTS.discard(self)
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


#: Segments created by this process and not yet unlinked.
_LIVE_SEGMENTS: set[SnapshotSegment] = set()


@atexit.register
def _cleanup_segments() -> None:  # pragma: no cover - exit path
    for segment in list(_LIVE_SEGMENTS):
        segment.close()
        segment.unlink()


def _segment_name(epoch: int) -> str:
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{epoch}_{secrets.token_hex(4)}"


def pack_arrays(
    arrays: Mapping[str, np.ndarray], epoch: int = 0
) -> tuple[dict, SnapshotSegment]:
    """Lay ``arrays`` contiguously in a fresh segment; returns the manifest.

    Array bytes are copied in (the one copy the whole scheme needs);
    every attacher after that is zero-copy. Arrays are packed in sorted
    key order so identical inputs produce identical segments.
    """
    if not arrays:
        raise ValueError("cannot pack an empty array set")
    layout: dict[str, dict] = {}
    offset = 0
    ordered = sorted(arrays)
    for key in ordered:
        array = np.ascontiguousarray(arrays[key])
        offset = _align(offset)
        layout[key] = {
            "offset": offset,
            "dtype": array.dtype.name,
            "shape": list(array.shape),
        }
        offset += array.nbytes
    total = max(offset, 1)

    segment = shared_memory.SharedMemory(
        create=True, size=total, name=_segment_name(epoch)
    )
    for key in ordered:
        array = np.ascontiguousarray(arrays[key])
        spec = layout[key]
        view = np.ndarray(
            array.shape,
            dtype=array.dtype,
            buffer=segment.buf,
            offset=spec["offset"],
        )
        view[...] = array
    digest = hashlib.sha256(segment.buf[:total]).hexdigest()
    manifest = {
        "schema": SCHEMA_VERSION,
        "segment": segment.name,
        "digest": digest,
        "total_bytes": total,
        "epoch": epoch,
        "arrays": layout,
    }
    wrapped = SnapshotSegment(segment, owner=True)
    _LIVE_SEGMENTS.add(wrapped)
    return manifest, wrapped


def attach(
    manifest: Mapping,
) -> tuple[dict[str, np.ndarray], SnapshotSegment]:
    """Map the manifest's segment into read-only numpy views, verified.

    Raises :class:`SegmentIntegrityError` when the mapped bytes hash to
    anything but the manifest digest, and ``ValueError`` on a malformed
    or wrong-schema manifest.
    """
    if not isinstance(manifest, Mapping) or manifest.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported shm manifest: {manifest!r:.80}")
    total = int(manifest["total_bytes"])
    segment = _attach_untracked(str(manifest["segment"]))
    wrapped = SnapshotSegment(segment, owner=False)
    if segment.size < total:
        wrapped.close()
        raise SegmentIntegrityError(
            f"segment {wrapped.name} is {segment.size} bytes, "
            f"manifest claims {total}"
        )
    digest = hashlib.sha256(segment.buf[:total]).hexdigest()
    if digest != manifest["digest"]:
        wrapped.close()
        raise SegmentIntegrityError(
            f"segment {wrapped.name} digest mismatch: "
            f"{digest[:12]}… != {str(manifest['digest'])[:12]}…"
        )
    return _views_over(manifest, segment.buf), wrapped


def _views_over(
    manifest: Mapping, buf: memoryview
) -> dict[str, np.ndarray]:
    """Read-only numpy views into ``buf`` laid out per the manifest."""
    views: dict[str, np.ndarray] = {}
    for key, spec in manifest["arrays"].items():
        view = np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=buf,
            offset=int(spec["offset"]),
        )
        view.flags.writeable = False
        views[key] = view
    return views


# -- metasearcher-level publish/adopt -----------------------------------------


def snapshot_arrays(metasearcher) -> dict[str, np.ndarray]:
    """Every built score-matrix buffer, keyed ``<role>/<field>``."""
    arrays: dict[str, np.ndarray] = {}
    for role, matrix in metasearcher.engine_matrices().items():
        for field, array in matrix.export_arrays().items():
            arrays[f"{role}/{field}"] = array
    return arrays


def publish_snapshot(
    metasearcher, epoch: int = 0
) -> tuple[dict, SnapshotSegment]:
    """Pack the metasearcher's warmed matrices and rebind them shared.

    After this call the publisher itself scores from the shared views —
    forked children inherit the mapping, so parent and workers serve from
    the same physical pages with no attach step at fork time. The caller
    must have warmed the metasearcher first (the pack covers exactly the
    buffers warmup built).
    """
    from repro.evaluation.instrument import span

    arrays = snapshot_arrays(metasearcher)
    with span("shm.pack", arrays=len(arrays), epoch=epoch):
        manifest, segment = pack_arrays(arrays, epoch=epoch)
        # Rebind over the owner mapping directly — no second attach.
        _adopt_views(metasearcher, _views_over(manifest, segment.buf))
    return manifest, segment


def adopt_snapshot(
    metasearcher, manifest: Mapping
) -> SnapshotSegment:
    """Attach the manifest's segment and install its views zero-copy.

    The metasearcher's engines are constructed (cheap) if needed, then
    every matrix the manifest covers adopts the shared buffers in place
    of local store builds. Must run before the snapshot's first select
    to get the zero-copy benefit; running later is correct but wasteful.
    """
    from repro.evaluation.instrument import span

    with span("shm.attach", segment=str(manifest.get("segment"))):
        # Build only the summary sets the manifest actually carries: a
        # plain-only snapshot (large universes skip EM) must not force
        # the shrunk set into existence in every attaching worker.
        roles = {
            key.partition("/")[0] for key in manifest.get("arrays", {})
        }
        metasearcher.ensure_engines(roles)
        views, segment = attach(manifest)
        _adopt_views(metasearcher, views)
    return segment


def _adopt_views(metasearcher, views: Mapping[str, np.ndarray]) -> None:
    matrices = metasearcher.engine_matrices()
    grouped: dict[str, dict[str, np.ndarray]] = {}
    for key, view in views.items():
        role, _, field = key.partition("/")
        grouped.setdefault(role, {})[field] = view
    for role, fields in grouped.items():
        matrix = matrices.get(role)
        if matrix is None:
            raise ValueError(
                f"manifest names matrix {role!r} this snapshot does not have"
            )
        matrix.adopt_arrays(fields)
