"""Shared-memory snapshot segments: bit-identity across process walls.

The contract under test (DESIGN.md §5f): a worker that *attaches* a
published segment by name — mapping the publisher's score matrices
through the manifest, digest-verified — serves results bit-identical to
the in-process snapshot the segment was packed from, for every
algorithm and strategy, on in-vocabulary and out-of-vocabulary queries
alike. Plus the integrity half: tampered or truncated segments, and
column stores that arrive incomplete or malformed, are rejected loudly,
and no test leaves an orphaned ``/dev/shm`` entry.
"""

import glob
import hashlib
import multiprocessing

import numpy as np
import pytest

from repro.selection.metasearcher import Metasearcher
from repro.serving import shm
from tests.test_columnar_equivalence import _synthetic_cell

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

ALGORITHMS = ("bgloss", "cori", "lm")
STRATEGIES = ("plain", "shrinkage", "universal")


def _metasearcher() -> Metasearcher:
    hierarchy, summaries, classifications = _synthetic_cell(shared_vocab=True)
    return Metasearcher(hierarchy, summaries, classifications)


def _warm(metasearcher: Metasearcher) -> None:
    for algorithm in ALGORITHMS:
        for strategy in STRATEGIES:
            metasearcher.select(
                ["warmup"], algorithm=algorithm, strategy=strategy, k=1
            )


def _shm_entries() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}_*"))


def _probe(metasearcher: Metasearcher, queries) -> dict:
    """Selection outcomes + matrix-byte digests, comparable across processes."""
    outcomes = {}
    for query in queries:
        for algorithm in ALGORITHMS:
            for strategy in STRATEGIES:
                outcome = metasearcher.select(
                    list(query), algorithm=algorithm, strategy=strategy, k=5
                )
                outcomes[f"{'+'.join(query)}/{algorithm}/{strategy}"] = {
                    "scores": sorted(outcome.scores.items()),
                    "selected": list(outcome.names),
                }
    return {
        "outcomes": outcomes,
        "lambdas": {
            name: summary.mixture_weights()
            for name, summary in metasearcher.shrunk_summaries.items()
        },
        # Byte digests of every shared buffer — scores, floors
        # (``defaults.*``), presence flags, cw — as the attacher sees them.
        "array_digests": {
            key: hashlib.sha256(
                np.ascontiguousarray(array).tobytes()
            ).hexdigest()
            for key, array in shm.snapshot_arrays(metasearcher).items()
        },
    }


def _attacher_main(manifest, queries, out_queue) -> None:
    """Worker-side half of the round trip: fresh cell, attached matrices."""
    metasearcher = _metasearcher()
    segment = shm.adopt_snapshot(metasearcher, manifest)
    try:
        out_queue.put(_probe(metasearcher, queries))
    finally:
        segment.close()


QUERIES = [
    ["gen000", "gen003"],
    ["cancer000", "gen001", "aids002"],
    ["definitely-oov", "gen002"],
    ["all", "terms", "oov"],
]


class TestPackAttachRoundTrip:
    def test_arrays_round_trip_bitwise(self):
        rng = np.random.default_rng(7)
        arrays = {
            "a/values.df": rng.random((5, 64)),
            "a/defaults.df": rng.random(5),
            "b/present": rng.random((3, 64)) > 0.5,
            "b/cw": rng.random(3),
        }
        manifest, segment = pack_and_cleanup(arrays)
        try:
            views, attached = shm.attach(manifest)
            for key, original in arrays.items():
                assert views[key].dtype == original.dtype
                assert views[key].shape == original.shape
                assert np.array_equal(views[key], original)
                assert not views[key].flags.writeable
                # Cache-line alignment of every array start.
                assert manifest["arrays"][key]["offset"] % shm.ALIGNMENT == 0
            del views
            attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_digest_tamper_rejected(self):
        manifest, segment = pack_and_cleanup(
            {"m/values.df": np.arange(32, dtype=np.float64)}
        )
        try:
            tampered = dict(manifest)
            tampered["digest"] = "0" * 64
            with pytest.raises(shm.SegmentIntegrityError):
                shm.attach(tampered)
        finally:
            segment.close()
            segment.unlink()

    def test_truncation_rejected(self):
        manifest, segment = pack_and_cleanup(
            {"m/values.df": np.arange(32, dtype=np.float64)}
        )
        try:
            lying = dict(manifest)
            lying["total_bytes"] = manifest["total_bytes"] + (1 << 20)
            with pytest.raises(shm.SegmentIntegrityError):
                shm.attach(lying)
        finally:
            segment.close()
            segment.unlink()

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            shm.attach({"schema": 99})

    def test_unlink_removes_dev_shm_entry(self):
        before = _shm_entries()
        manifest, segment = pack_and_cleanup(
            {"m/cw": np.ones(4, dtype=np.float64)}
        )
        name = manifest["segment"]
        assert any(name in entry for entry in _shm_entries())
        segment.close()
        segment.unlink()
        assert _shm_entries() == before


def pack_and_cleanup(arrays):
    return shm.pack_arrays(arrays, epoch=1)


class TestWorkerAttachedSnapshotBitIdentity:
    """The headline guarantee: attach in another process, serve identically."""

    def test_cross_process_scores_floors_selected_lambdas(self):
        before = _shm_entries()
        publisher = _metasearcher()
        _warm(publisher)
        expected = _probe(publisher, QUERIES)
        manifest, segment = shm.publish_snapshot(publisher, epoch=1)
        try:
            # Publishing rebinds the publisher onto the shared views; its
            # own results must be unchanged by the rebind.
            assert _probe(publisher, QUERIES) == expected

            context = multiprocessing.get_context("fork")
            out_queue = context.Queue()
            child = context.Process(
                target=_attacher_main, args=(manifest, QUERIES, out_queue)
            )
            child.start()
            observed = out_queue.get(timeout=120)
            child.join(timeout=30)
            assert child.exitcode == 0

            # Bitwise: every score, every selected flag, every shared
            # buffer (column stores, defaults, bounds, presence, cw),
            # every lambda.
            assert observed["outcomes"] == expected["outcomes"]
            assert observed["array_digests"] == expected["array_digests"]
            assert observed["lambdas"] == expected["lambdas"]
        finally:
            segment.close()
            segment.unlink()
        assert _shm_entries() == before


class TestBoundArraysInSnapshot:
    """Schema-2 extension: pruning bounds ride along, digest-checked."""

    @staticmethod
    def _warm_pruned(metasearcher: Metasearcher) -> None:
        for algorithm in ALGORITHMS:
            metasearcher.select(
                ["gen000", "gen001"], algorithm=algorithm, strategy="plain",
                k=3, prune=True,
            )

    def test_bounds_packed_after_pruned_warmup(self):
        publisher = _metasearcher()
        _warm(publisher)
        self._warm_pruned(publisher)
        arrays = shm.snapshot_arrays(publisher)
        assert any("/colmax." in key for key in arrays)
        assert any("/rowmax." in key for key in arrays)

    def test_tampered_bound_array_rejected(self):
        publisher = _metasearcher()
        _warm(publisher)
        self._warm_pruned(publisher)
        arrays = shm.snapshot_arrays(publisher)
        key = next(k for k in sorted(arrays) if "/colmax." in k)
        manifest, segment = shm.pack_arrays(arrays, epoch=3)
        try:
            # Flip one byte inside the bound array's own extent: the
            # segment digest must catch corruption of bounds, not just
            # of the column stores' entries.
            offset = manifest["arrays"][key]["offset"]
            segment.buf[offset] ^= 0xFF
            with pytest.raises(shm.SegmentIntegrityError):
                shm.attach(manifest)
        finally:
            segment.close()
            segment.unlink()

    def test_adopted_pruned_selection_identical(self):
        publisher = _metasearcher()
        _warm(publisher)
        self._warm_pruned(publisher)
        manifest, segment = shm.publish_snapshot(publisher, epoch=4)
        adopter = _metasearcher()
        adopted = shm.adopt_snapshot(adopter, manifest)
        try:
            for query in QUERIES:
                for algorithm in ALGORITHMS:
                    ours = publisher.select(
                        list(query), algorithm=algorithm, strategy="plain",
                        k=5, prune=True,
                    )
                    theirs = adopter.select(
                        list(query), algorithm=algorithm, strategy="plain",
                        k=5, prune=True,
                    )
                    assert ours.names == theirs.names
                    assert sorted(ours.scores.items()) == sorted(
                        theirs.scores.items()
                    )
                    assert ours.candidates_scored == theirs.candidates_scored
        finally:
            adopted.close()
            segment.close()
            segment.unlink()


def _store_export():
    """A warmed plain matrix's df store, as copies to tamper with, and a
    fresh matrix to adopt them into."""
    publisher = _metasearcher()
    publisher.select(["gen000"], algorithm="bgloss", strategy="plain")
    arrays = {
        key: np.array(array)
        for key, array in
        publisher.engine_matrices()["set:plain"].export_arrays().items()
        if key.endswith(".df")
    }
    adopter = _metasearcher()
    adopter.ensure_engines({"set:plain"})
    return arrays, adopter.engine_matrices()["set:plain"]


def _decreasing(indptr):
    # Lift one inner bound above its successor; the ends stay put.
    indptr = indptr.copy()
    inner = int(np.flatnonzero(indptr[1:-1] < indptr[-1])[0]) + 1
    indptr[inner] = indptr[-1] + 1
    return indptr


def _first_row(rows, row):
    rows = rows.copy()
    rows[0] = row
    return rows


#: case -> (the arrays to replace, computed from the export; None drops
#: one), and the message ``adopt_arrays`` must raise.
MALFORMED = {
    "indptr-length": (
        lambda a: {"indptr.df": a["indptr.df"][:-1]}, "indptr.df"
    ),
    "indptr-decreasing": (
        lambda a: {"indptr.df": _decreasing(a["indptr.df"])},
        "never decrease",
    ),
    "indptr-past-entries": (
        lambda a: {"rows.df": a["rows.df"][:-1],
                   "values.df": a["values.df"][:-1]},
        "entry count",
    ),
    "lengths-differ": (
        lambda a: {"values.df": a["values.df"][:-1]}, "holds"
    ),
    "rows-dtype": (
        lambda a: {"rows.df": a["rows.df"].astype(np.int64)}, "rows.df"
    ),
    "values-dtype": (
        lambda a: {"values.df": a["values.df"].astype(np.float32)},
        "values.df",
    ),
    "row-past-end": (
        lambda a: {"rows.df": _first_row(a["rows.df"], len(a["defaults.df"]))},
        "outside",
    ),
    "row-negative": (
        lambda a: {"rows.df": _first_row(a["rows.df"], -1)}, "outside"
    ),
    "no-defaults": (lambda a: {"defaults.df": None}, "defaults.df"),
}


class TestMalformedStoreRejected:
    """``adopt_arrays`` fails closed on a store that cannot be right."""

    def test_well_formed_store_adopted(self):
        arrays, matrix = _store_export()
        matrix.adopt_arrays(arrays)
        assert matrix.store("df").rows is arrays["rows.df"]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_store_rejected(self, case):
        arrays, matrix = _store_export()
        replace, message = MALFORMED[case]
        for key, array in replace(arrays).items():
            if array is None:
                del arrays[key]
            else:
                arrays[key] = array
        with pytest.raises(ValueError, match=message):
            matrix.adopt_arrays(arrays)
        # Nothing was installed: the matrix still builds its own store.
        assert matrix.store("df").rows is not arrays.get("rows.df")

    def test_dense_field_rejected(self):
        _, matrix = _store_export()
        with pytest.raises(ValueError, match="unknown"):
            matrix.adopt_arrays({"dense.df": np.zeros((8, 4))})

    def test_schema_2_manifest_refused(self):
        manifest, segment = pack_and_cleanup(
            {"set:plain/dense.df": np.zeros((8, 4), dtype=np.float64)}
        )
        try:
            manifest = dict(manifest, schema=2)
            with pytest.raises(ValueError, match="unsupported"):
                shm.adopt_snapshot(_metasearcher(), manifest)
        finally:
            segment.close()
            segment.unlink()


class TestInProcessAdoptionBitIdentity:
    """Adopted views vs locally built matrices, over many random queries."""

    @pytest.fixture(scope="class")
    def pair(self, request):
        publisher = _metasearcher()
        _warm(publisher)
        manifest, segment = shm.publish_snapshot(publisher, epoch=1)
        adopter = _metasearcher()
        adopted = shm.adopt_snapshot(adopter, manifest)

        def cleanup():
            adopted.close()
            segment.close()
            segment.unlink()

        request.addfinalizer(cleanup)
        return publisher, adopter

    def test_fixed_queries_identical(self, pair):
        publisher, adopter = pair
        assert _probe(adopter, QUERIES) == _probe(publisher, QUERIES)

    if HAVE_HYPOTHESIS:
        VOCAB_WORDS = st.sampled_from(
            [f"gen{i:03d}" for i in range(10)]
            + ["cancer000", "cancer001", "aids000", "sports000"]
        )
        OOV_WORDS = st.from_regex(r"[a-z]{3,12}", fullmatch=True).map(
            lambda w: f"oov-{w}"
        )

        @given(
            query=st.lists(
                st.one_of(VOCAB_WORDS, OOV_WORDS), min_size=1, max_size=5
            ),
            algorithm=st.sampled_from(ALGORITHMS),
            strategy=st.sampled_from(STRATEGIES),
        )
        @settings(max_examples=40, deadline=None)
        def test_random_oov_queries_identical(
            self, pair, query, algorithm, strategy
        ):
            publisher, adopter = pair
            base = publisher.select(
                query, algorithm=algorithm, strategy=strategy, k=5
            )
            shared = adopter.select(
                query, algorithm=algorithm, strategy=strategy, k=5
            )
            assert sorted(shared.scores.items()) == sorted(
                base.scores.items()
            )
            assert list(shared.names) == list(base.names)
