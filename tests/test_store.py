"""The content-addressed artifact store: fingerprints, round-trips,
corruption handling, and cache-key invalidation through the harness."""

from __future__ import annotations

import dataclasses
import gzip
import json
import shutil

import pytest

from repro.evaluation import harness
from repro.evaluation import store as store_mod
from repro.evaluation.instrument import get_instrumentation
from repro.evaluation.store import (
    ARTIFACT_KINDS,
    STORE_VERSION,
    ArtifactStore,
    fingerprint,
)
from repro.selection.metasearcher import Metasearcher
from repro.summaries.io import summary_to_dict
from repro.summaries.sampling import QBSConfig, QBSSampler

from tests.conftest import MICRO_PROFILE

import numpy as np


def counter_delta(snapshot):
    """Global counters accumulated since ``snapshot`` was taken."""
    return get_instrumentation().delta_since(snapshot)["counters"]


# -- fingerprinting ----------------------------------------------------------------


class TestFingerprint:
    def test_stable_hex_digest(self):
        key = fingerprint({"a": 1})
        assert key == fingerprint({"a": 1})
        assert len(key) == 20
        int(key, 16)  # hex

    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_tuple_and_list_equivalent(self):
        assert fingerprint({"r": (1, 2)}) == fingerprint({"r": [1, 2]})

    def test_dataclass_equals_its_asdict(self):
        config = QBSConfig(max_sample_docs=25)
        assert fingerprint({"qbs": config}) == fingerprint(
            {"qbs": dataclasses.asdict(config)}
        )

    def test_nested_change_changes_digest(self):
        base = {"outer": {"inner": [1, 2, 3]}}
        changed = {"outer": {"inner": [1, 2, 4]}}
        assert fingerprint(base) != fingerprint(changed)

    def test_sets_rejected(self):
        with pytest.raises(TypeError):
            fingerprint({"s": {1, 2}})

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            fingerprint({"f": object()})


# -- payload converters ------------------------------------------------------------


class TestPayloadRoundTrip:
    def test_testbed_databases(self, tiny_testbed):
        payload = store_mod.testbed_databases_to_payload(tiny_testbed.databases)
        rebuilt = store_mod.testbed_databases_from_payload(
            json.loads(json.dumps(payload))
        )
        assert [db.name for db in rebuilt] == [
            db.name for db in tiny_testbed.databases
        ]
        for original, copy in zip(tiny_testbed.databases, rebuilt):
            assert copy.category == original.category
            assert copy.size == original.size
            assert [d.terms for d in copy.documents()] == [
                d.terms for d in original.documents()
            ]

    def test_samples(self, tiny_testbed):
        sampler = QBSSampler(QBSConfig(max_sample_docs=15, give_up_after=20))
        seed_vocabulary = tiny_testbed.corpus_model.general_words(50)
        db = tiny_testbed.databases[0]
        sample = sampler.sample(
            db.engine, np.random.default_rng([5, 0]), seed_vocabulary
        )
        samples = {db.name: sample}
        classifications = {db.name: db.category}
        sizes = {db.name: 123.5}
        payload = store_mod.samples_to_payload(samples, classifications, sizes)
        got_samples, got_class, got_sizes = store_mod.samples_from_payload(
            json.loads(json.dumps(payload))
        )
        rebuilt = got_samples[db.name]
        assert [d.terms for d in rebuilt.documents] == [
            d.terms for d in sample.documents
        ]
        assert rebuilt.match_counts == sample.match_counts
        assert rebuilt.num_queries == sample.num_queries
        assert got_class[db.name] == db.category
        assert got_sizes[db.name] == 123.5

    def test_summaries(self, tiny_summaries):
        summaries, classifications = tiny_summaries
        payload = store_mod.summaries_to_payload(summaries, classifications)
        got_summaries, got_class = store_mod.summaries_from_payload(
            json.loads(json.dumps(payload))
        )
        assert list(got_summaries) == list(summaries)
        for name in summaries:
            assert summary_to_dict(got_summaries[name]) == summary_to_dict(
                summaries[name]
            )
        assert got_class == classifications

    def test_shrunk(self, tiny_testbed, tiny_summaries):
        summaries, classifications = tiny_summaries
        metasearcher = Metasearcher(
            tiny_testbed.hierarchy, summaries, classifications
        )
        shrunk = metasearcher.shrunk_summaries
        payload = store_mod.shrunk_to_payload(shrunk)
        rebuilt = store_mod.shrunk_from_payload(json.loads(json.dumps(payload)))
        assert list(rebuilt) == list(shrunk)
        for name in shrunk:
            assert rebuilt[name].lambdas == shrunk[name].lambdas
            assert summary_to_dict(rebuilt[name]) == summary_to_dict(
                shrunk[name]
            )


# -- the store itself --------------------------------------------------------------


class TestArtifactStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        snap = get_instrumentation().snapshot()
        payload = {"numbers": [1, 2, 3], "name": "x"}
        path = store.save("testbed", "abc123", payload, config={"seed": 1})
        assert path.exists()
        assert store.load("testbed", "abc123") == payload
        delta = counter_delta(snap)
        assert delta.get("cache.store") == 1
        assert delta.get("cache.hit") == 1

    def test_missing_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        snap = get_instrumentation().snapshot()
        assert store.load("samples", "nope") is None
        assert counter_delta(snap).get("cache.miss") == 1

    def test_overwrite_replaces_payload(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("shrunk", "k", {"v": 1})
        store.save("shrunk", "k", {"v": 2})
        assert store.load("shrunk", "k") == {"v": 2}

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("summaries", "k", {"v": 1})
        leftovers = [
            p for p in (tmp_path / "summaries").iterdir()
            if p.name != "k.json.gz"
        ]
        assert leftovers == []

    def test_unknown_kind_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.path_for("bogus", "k")
        with pytest.raises(ValueError):
            store.save("bogus", "k", {})

    @pytest.mark.parametrize(
        "corruption",
        ["garbage", "truncated", "bad_json", "not_a_dict",
         "wrong_version", "wrong_kind", "no_payload"],
    )
    def test_corruption_is_a_miss(self, tmp_path, corruption):
        store = ArtifactStore(tmp_path)
        store.save("testbed", "k", {"v": 1})
        path = store.path_for("testbed", "k")
        if corruption == "garbage":
            path.write_bytes(b"this is not gzip data")
        elif corruption == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif corruption == "bad_json":
            path.write_bytes(gzip.compress(b"{not json"))
        elif corruption == "not_a_dict":
            path.write_bytes(gzip.compress(b"[1, 2, 3]"))
        elif corruption == "wrong_version":
            document = {"store_version": STORE_VERSION + 1, "kind": "testbed",
                        "payload": {"v": 1}}
            path.write_bytes(gzip.compress(json.dumps(document).encode()))
        elif corruption == "wrong_kind":
            document = {"store_version": STORE_VERSION, "kind": "samples",
                        "payload": {"v": 1}}
            path.write_bytes(gzip.compress(json.dumps(document).encode()))
        elif corruption == "no_payload":
            document = {"store_version": STORE_VERSION, "kind": "testbed"}
            path.write_bytes(gzip.compress(json.dumps(document).encode()))
        snap = get_instrumentation().snapshot()
        assert store.load("testbed", "k") is None
        delta = counter_delta(snap)
        assert delta.get("cache.miss") == 1
        assert delta.get("cache.corrupt") == 1

    def test_converter_failure_is_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("summaries", "k", {"unexpected": "shape"})
        snap = get_instrumentation().snapshot()
        result = store.load_artifact(
            "summaries", "k", store_mod.summaries_from_payload
        )
        assert result is None
        assert counter_delta(snap).get("cache.corrupt") == 1

    def test_entries_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.entries() == []
        store.save("testbed", "t1", {"v": 1})
        store.save("samples", "s1", {"v": 2})
        store.save("samples", "s2", {"v": 3})
        entries = store.entries()
        assert [(e.kind, e.key) for e in entries] == [
            ("testbed", "t1"), ("samples", "s1"), ("samples", "s2")
        ]
        assert all(e.bytes > 0 for e in entries)
        assert store.clear() == 3
        assert store.entries() == []


class TestStoreTrafficStats:
    def test_stats_accumulate_per_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.stats() == {}
        store.save("testbed", "t1", {"v": 1})
        store.load("testbed", "t1")
        store.load("testbed", "gone")
        store.save("samples", "s1", {"v": 2})
        stats = store.stats()
        assert stats["testbed"]["hits"] == 1
        assert stats["testbed"]["misses"] == 1
        assert stats["testbed"]["saves"] == 1
        assert stats["testbed"]["bytes_read"] > 0
        assert stats["testbed"]["bytes_written"] > 0
        assert stats["samples"]["saves"] == 1
        assert stats["samples"]["hits"] == 0

    def test_stats_survive_reopening_the_store(self, tmp_path):
        ArtifactStore(tmp_path).save("testbed", "t1", {"v": 1})
        reopened = ArtifactStore(tmp_path)
        assert reopened.stats()["testbed"]["saves"] == 1

    def test_corrupt_load_counted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("testbed", "k", {"v": 1})
        store.path_for("testbed", "k").write_bytes(b"junk")
        assert store.load("testbed", "k") is None
        stats = store.stats()
        assert stats["testbed"]["corrupt"] == 1
        assert stats["testbed"]["misses"] == 1

    def test_clear_removes_the_sidecar(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("testbed", "t1", {"v": 1})
        assert store.stats_path.exists()
        store.clear()
        assert not store.stats_path.exists()
        assert store.stats() == {}

    def test_unreadable_sidecar_is_empty_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("testbed", "t1", {"v": 1})
        store.stats_path.write_text("not json")
        assert store.stats() == {}

    def test_concurrent_traffic_deltas_all_survive(self, tmp_path):
        """Regression: the sidecar's read-modify-write used to race across
        ``--jobs`` workers, silently dropping deltas. Each worker gets its
        own store instance (as parallel harness workers do); every
        increment must land under the file lock."""
        from concurrent.futures import ThreadPoolExecutor

        workers, per_worker = 8, 25

        def bump(_index: int) -> None:
            store = ArtifactStore(tmp_path)
            for _ in range(per_worker):
                store._record_traffic("testbed", hits=1, bytes_read=10)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(bump, range(workers)))
        totals = ArtifactStore(tmp_path).stats()["testbed"]
        assert totals["hits"] == workers * per_worker
        assert totals["bytes_read"] == workers * per_worker * 10

    def test_sidecar_works_without_fcntl(self, tmp_path, monkeypatch):
        """Regression: platforms with neither ``fcntl`` nor ``msvcrt``
        (emulated here) must still record traffic — serialized by the
        in-process thread lock — rather than crash or skip the sidecar."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.evaluation import store as store_mod

        monkeypatch.setattr(store_mod, "fcntl", None)
        monkeypatch.setattr(store_mod, "msvcrt", None)
        store = ArtifactStore(tmp_path)
        store.save("testbed", "t1", {"v": 1})
        assert store.load("testbed", "t1") == {"v": 1}

        def bump(_index: int) -> None:
            for _ in range(20):
                store._record_traffic("testbed", hits=1)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(bump, range(6)))
        totals = store.stats()["testbed"]
        assert totals["hits"] == 1 + 6 * 20  # the load above plus the bumps
        # No lock file is created on lockless platforms.
        assert not (tmp_path / ".stats.json.lock").exists()

    def test_sidecar_lock_file_used_with_fcntl(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("testbed", "t1", {"v": 1})
        assert (tmp_path / ".stats.json.lock").exists()


# -- key invalidation through the harness ------------------------------------------


def keys_for(profile, monkeypatch, dataset="trec4", sampler="qbs",
             frequency_estimation=False):
    """Cache keys of one cell under a throwaway scale profile."""
    monkeypatch.setitem(harness.SCALES, "_variant", profile)
    return harness.cache_keys(
        dataset, sampler, frequency_estimation, scale="_variant"
    )


class TestCacheKeyInvalidation:
    def test_keys_cover_every_per_cell_kind(self, monkeypatch):
        keys = keys_for(MICRO_PROFILE, monkeypatch)
        assert set(keys) == set(ARTIFACT_KINDS)
        assert len(set(keys.values())) == len(keys)

    def test_content_addressed_not_name_addressed(self, monkeypatch):
        """The scale *name* is not part of the key; the profile contents are."""
        monkeypatch.setitem(harness.SCALES, "alias", MICRO_PROFILE)
        base = keys_for(MICRO_PROFILE, monkeypatch)
        assert harness.cache_keys("trec4", "qbs", False, scale="alias") == base

    def test_sampler_knob_invalidates_downstream_only(self, monkeypatch):
        base = keys_for(MICRO_PROFILE, monkeypatch)
        tweaked = dataclasses.replace(
            MICRO_PROFILE,
            qbs=dataclasses.replace(MICRO_PROFILE.qbs, max_sample_docs=26),
        )
        changed = keys_for(tweaked, monkeypatch)
        assert changed["testbed"] == base["testbed"]
        assert changed["samples"] != base["samples"]
        assert changed["summaries"] != base["summaries"]
        assert changed["shrunk"] != base["shrunk"]

    def test_corpus_knob_invalidates_everything(self, monkeypatch):
        base = keys_for(MICRO_PROFILE, monkeypatch)
        tweaked = dataclasses.replace(
            MICRO_PROFILE,
            corpus_config=dataclasses.replace(
                MICRO_PROFILE.corpus_config, general_vocab_size=301
            ),
        )
        changed = keys_for(tweaked, monkeypatch)
        for kind in base:
            assert changed[kind] != base[kind]

    def test_testbed_seed_invalidates_everything(self, monkeypatch):
        base = keys_for(MICRO_PROFILE, monkeypatch)
        monkeypatch.setitem(harness.TESTBED_SEEDS, "trec4", 4242)
        changed = keys_for(MICRO_PROFILE, monkeypatch)
        for kind in base:
            assert changed[kind] != base[kind]

    def test_sampling_seed_stream_invalidates_samples(self, monkeypatch):
        base = keys_for(MICRO_PROFILE, monkeypatch)
        monkeypatch.setattr(harness, "QBS_SEED_STREAM", 999983)
        changed = keys_for(MICRO_PROFILE, monkeypatch)
        assert changed["testbed"] == base["testbed"]
        assert changed["samples"] != base["samples"]
        assert changed["shrunk"] != base["shrunk"]

    def test_frequency_estimation_splits_summaries(self, monkeypatch):
        plain = keys_for(MICRO_PROFILE, monkeypatch, frequency_estimation=False)
        fe = keys_for(MICRO_PROFILE, monkeypatch, frequency_estimation=True)
        assert fe["testbed"] == plain["testbed"]
        assert fe["samples"] == plain["samples"]
        assert fe["summaries"] != plain["summaries"]
        assert fe["shrunk"] != plain["shrunk"]

    def test_sampler_choice_splits_samples(self, monkeypatch):
        qbs = keys_for(MICRO_PROFILE, monkeypatch, sampler="qbs")
        fps = keys_for(MICRO_PROFILE, monkeypatch, sampler="fps")
        assert fps["testbed"] == qbs["testbed"]
        assert fps["samples"] != qbs["samples"]

    def test_dataset_splits_everything(self, monkeypatch):
        trec4 = keys_for(MICRO_PROFILE, monkeypatch, dataset="trec4")
        trec6 = keys_for(MICRO_PROFILE, monkeypatch, dataset="trec6")
        for kind in trec4:
            assert trec4[kind] != trec6[kind]

    def test_pipeline_version_invalidates_everything(self, monkeypatch):
        base = keys_for(MICRO_PROFILE, monkeypatch)
        monkeypatch.setattr(store_mod, "PIPELINE_VERSION", 999)
        changed = keys_for(MICRO_PROFILE, monkeypatch)
        for kind in base:
            assert changed[kind] != base[kind]


# -- store-backed harness runs -----------------------------------------------------


class TestHarnessStoreIntegration:
    def test_cold_run_persists_every_layer(self, micro_scale, tmp_path):
        harness.clear_caches()
        harness.configure(cache_dir=tmp_path / "store", jobs=1)
        cell = harness.get_cell("trec4", "qbs", False, scale=micro_scale)
        harness.ensure_shrunk(cell)
        counters = get_instrumentation().counters
        assert counters.get("testbed.synthesized") == 1
        assert counters.get("sample.databases") == len(cell.summaries)
        assert counters.get("em.runs", 0) > 0
        kinds = {entry.kind for entry in ArtifactStore(tmp_path / "store").entries()}
        assert kinds == set(ARTIFACT_KINDS)

    def test_warm_run_skips_synthesis_and_is_identical(
        self, micro_scale, micro_store
    ):
        # Cold results: rebuilt from scratch without any store.
        harness.clear_caches()
        cold_cell = harness.get_cell("trec4", "qbs", False, scale=micro_scale)
        cold_shrunk = harness.ensure_shrunk(cold_cell)
        cold_summaries = {
            name: summary_to_dict(s) for name, s in cold_cell.summaries.items()
        }
        cold_lambdas = {name: s.lambdas for name, s in cold_shrunk.items()}
        cold_rk = harness.rk_experiment(cold_cell, "cori", "shrinkage", k_max=5)

        # Warm run from the pre-built session store.
        harness.clear_caches()
        harness.configure(cache_dir=micro_store, jobs=1)
        cell = harness.get_cell("trec4", "qbs", False, scale=micro_scale)
        shrunk = harness.ensure_shrunk(cell)
        counters = get_instrumentation().counters
        assert "testbed.synthesized" not in counters
        assert "sample.databases" not in counters
        assert "em.runs" not in counters
        assert counters.get("cache.hit", 0) >= 2  # summaries + shrunk

        assert {
            name: summary_to_dict(s) for name, s in cell.summaries.items()
        } == cold_summaries
        assert {name: s.lambdas for name, s in shrunk.items()} == cold_lambdas
        warm_rk = harness.rk_experiment(cell, "cori", "shrinkage", k_max=5)
        assert np.array_equal(cold_rk, warm_rk, equal_nan=True)

    def test_corrupted_artifact_rebuilt_in_place(
        self, micro_scale, micro_store, tmp_path
    ):
        store_root = tmp_path / "store"
        shutil.copytree(micro_store, store_root)
        keys = harness.cache_keys("trec4", "qbs", False, scale=micro_scale)
        store = ArtifactStore(store_root)
        path = store.path_for("summaries", keys["summaries"])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        harness.clear_caches()
        harness.configure(cache_dir=store_root, jobs=1)
        cell = harness.get_cell("trec4", "qbs", False, scale=micro_scale)
        counters = get_instrumentation().counters
        assert counters.get("cache.corrupt", 0) >= 1
        # Rebuilt from the (still valid) samples artifact, not from scratch.
        assert "sample.databases" not in counters
        assert "testbed.synthesized" not in counters

        # The overwritten artifact is valid again and byte-equivalent in
        # content to the pristine one.
        pristine = ArtifactStore(micro_store).load("summaries", keys["summaries"])
        assert store.load("summaries", keys["summaries"]) == pristine
        assert len(cell.summaries) == MICRO_PROFILE.trec_databases

    def test_no_cache_configuration_never_touches_disk(
        self, micro_scale, tmp_path
    ):
        harness.clear_caches()
        harness.configure(cache_dir=False, jobs=1)
        harness.get_testbed("trec4", scale=micro_scale)
        assert list(tmp_path.iterdir()) == []
        assert get_instrumentation().counters.get("cache.store", 0) == 0
