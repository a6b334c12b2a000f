"""Dynamic database lifecycle: incremental updates, COW hot swap.

The contract under test (DESIGN.md §5d): a cell updated incrementally
through :class:`~repro.serving.lifecycle.CellUpdater` must be *bitwise*
identical — shrunk probabilities, EM lambdas, selection scores, floors,
selected flags — to a cell rebuilt from scratch over the final database
set; snapshots must swap atomically under concurrent ``select`` traffic
with no torn reads; and ``/healthz``-path introspection must never queue
behind scoring.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.evaluation import harness
from repro.evaluation.instrument import get_instrumentation
from repro.selection import metasearcher as metasearcher_module
from repro.selection.metasearcher import Metasearcher
from repro.serving.client import ServingClient, ServingError
from repro.serving.lifecycle import (
    CellUpdater,
    canonical_op,
    rehome_summary,
    summary_payload,
    verify_against_rebuild,
)
from repro.serving.server import make_server
from repro.serving.service import (
    SelectionService,
    ServiceConfig,
    parse_update_request,
)
from repro.summaries.summary import SampledSummary
from tests.test_batch_equivalence import assert_serial
from tests.test_columnar_equivalence import _synthetic_cell

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


def _metasearcher(shrunk: bool = True) -> Metasearcher:
    """The synthetic cell; with ``shrunk`` it holds R(D), as a cell that
    serves them does, so an updater built on it carries them."""
    hierarchy, summaries, classifications = _synthetic_cell(shared_vocab=True)
    metasearcher = Metasearcher(hierarchy, summaries, classifications)
    if shrunk:
        metasearcher.shrunk_summaries
    return metasearcher


def _fresh_summary(topic: str = "cancer", seed: int = 99) -> SampledSummary:
    """A standalone sampled summary (own vocabulary, as an upload has)."""
    rng = np.random.default_rng(seed)
    words = [f"gen{i:03d}" for i in range(6)] + [
        f"{topic}{i:03d}" for i in range(9)
    ]
    sample_size = 20
    sample_df = {w: int(rng.integers(1, sample_size + 1)) for w in words}
    sample_tf = {w: c + int(rng.integers(0, 10)) for w, c in sample_df.items()}
    total_tf = sum(sample_tf.values())
    return SampledSummary(
        size=130,
        df_probs={w: c / sample_size for w, c in sample_df.items()},
        tf_probs={w: c / total_tf for w, c in sample_tf.items()},
        sample_size=sample_size,
        sample_df=sample_df,
        alpha=-1.1,
        sample_tf=sample_tf,
    )


def _assert_verified(metasearcher: Metasearcher) -> dict:
    report = verify_against_rebuild(metasearcher)
    assert report["verified"], report["mismatches"]
    assert report["max_lambda_delta"] == 0.0
    assert report["max_lambda_delta"] < 1e-9
    return report


class TestCanonicalOp:
    def test_resample_gets_default_seed(self):
        assert canonical_op({"op": "resample", "name": "x"}) == {
            "op": "resample",
            "name": "x",
            "seed": 1,
        }

    @pytest.mark.parametrize(
        "op",
        [
            "remove db00",
            {"op": "explode", "name": "db00"},
            {"op": "remove"},
            {"op": "remove", "name": ""},
            {"op": "resample", "name": "x", "seed": -1},
            {"op": "resample", "name": "x", "seed": True},
            {"op": "add", "name": "x", "summary": {}},
            {"op": "add", "name": "x", "summary": {}, "path": []},
            {"op": "add", "name": "x", "summary": {}, "path": ["Root", 3]},
            {"op": "replace", "name": "x"},
        ],
    )
    def test_malformed_ops_rejected(self, op):
        with pytest.raises(ValueError):
            canonical_op(op)


class TestBitIdentity:
    def test_remove_matches_rebuild(self):
        updater = CellUpdater(_metasearcher())
        metasearcher, info = updater.apply([{"op": "remove", "name": "db02"}])
        assert info["databases"] == 7
        assert "db02" not in metasearcher.sampled_summaries
        _assert_verified(metasearcher)

    def test_add_matches_rebuild(self):
        updater = CellUpdater(_metasearcher())
        op = {
            "op": "add",
            "name": "newdb",
            "summary": summary_payload(_fresh_summary()),
            "path": ["Root", "Health", "Diseases", "Cancer"],
        }
        metasearcher, info = updater.apply([op])
        assert info["databases"] == 9
        assert "newdb" in metasearcher.sampled_summaries
        _assert_verified(metasearcher)

    def test_replace_matches_rebuild(self):
        updater = CellUpdater(_metasearcher())
        op = {
            "op": "replace",
            "name": "db01",
            "summary": summary_payload(_fresh_summary("aids", seed=5)),
        }
        metasearcher, info = updater.apply([op])
        assert info["databases"] == 8
        _assert_verified(metasearcher)

    def test_remove_then_restore_matches_rebuild(self):
        updater = CellUpdater(_metasearcher())
        first, _ = updater.apply([{"op": "remove", "name": "db05"}])
        _assert_verified(first)
        second, _ = updater.apply([{"op": "restore", "name": "db05"}])
        assert "db05" in second.sampled_summaries
        _assert_verified(second)

    def test_cancelling_sequence_in_one_batch(self):
        updater = CellUpdater(_metasearcher())
        metasearcher, info = updater.apply(
            [
                {"op": "remove", "name": "db07"},
                {"op": "restore", "name": "db07"},
            ]
        )
        assert info["databases"] == 8
        _assert_verified(metasearcher)

    def test_multi_op_batch_matches_rebuild(self):
        updater = CellUpdater(_metasearcher())
        metasearcher, info = updater.apply(
            [
                {"op": "remove", "name": "db00"},
                {
                    "op": "add",
                    "name": "extra",
                    "summary": summary_payload(_fresh_summary("java", seed=3)),
                    "path": ["Root", "Computers", "Programming", "Java"],
                },
                {
                    "op": "replace",
                    "name": "db06",
                    "summary": summary_payload(
                        _fresh_summary("databases", seed=11)
                    ),
                },
            ]
        )
        assert info["databases"] == 8
        _assert_verified(metasearcher)

    def test_em_digest_cache_hits_on_replayed_inputs(self):
        """remove → restore → remove again: the third apply's EM inputs
        are bitwise the first apply's, so the digest cache answers them."""
        updater = CellUpdater(_metasearcher())
        first, _ = updater.apply([{"op": "remove", "name": "db07"}])
        updater.apply([{"op": "restore", "name": "db07"}])
        counters = get_instrumentation().counters
        hits_before = counters.get("em.cache_hit", 0)
        third, _ = updater.apply([{"op": "remove", "name": "db07"}])
        assert counters.get("em.cache_hit", 0) > hits_before
        for name, shrunk in third.shrunk_summaries.items():
            assert shrunk.lambdas == first.shrunk_summaries[name].lambdas
            assert (
                shrunk.tf_lambdas == first.shrunk_summaries[name].tf_lambdas
            )
        _assert_verified(third)

    def test_post_swap_store_equals_fresh_build(self):
        previous = _metasearcher()
        previous.select(["gen000"], algorithm="cori", strategy="plain")
        metasearcher, _ = CellUpdater(previous).apply(
            [{"op": "remove", "name": "db04"}]
        )
        summaries = metasearcher.builder.database_summaries()
        classifications = metasearcher.builder.database_classifications()
        fresh = Metasearcher(metasearcher.hierarchy, summaries, classifications)
        for searcher in (metasearcher, fresh):
            for algorithm in ("cori", "lm"):
                for strategy in ("plain", "universal", "shrinkage"):
                    searcher.select(
                        ["gen000", "gen001"], algorithm=algorithm,
                        strategy=strategy, k=3, prune=True,
                    )
        theirs_by_role = fresh.engine_matrices()
        assert set(metasearcher.engine_matrices()) == set(theirs_by_role)
        for role, matrix in metasearcher.engine_matrices().items():
            ours = matrix.export_arrays()
            theirs = theirs_by_role[role].export_arrays()
            assert sorted(ours) == sorted(theirs), role
            assert {"rows.df", "rows.tf", "groupmax.tf"} <= set(ours), role
            for field, array in ours.items():
                assert array.dtype == theirs[field].dtype, (role, field)
                assert array.tobytes() == theirs[field].tobytes(), (
                    role, field
                )
        _assert_verified(metasearcher)

    def test_failed_op_leaves_updater_untouched(self):
        updater = CellUpdater(_metasearcher())
        with pytest.raises(ValueError):
            updater.apply([{"op": "remove", "name": "no-such-db"}])
        with pytest.raises(ValueError):
            updater.apply([{"op": "restore", "name": "db00"}])
        assert updater.journal == []
        metasearcher, info = updater.apply([{"op": "remove", "name": "db00"}])
        assert info["databases"] == 7
        _assert_verified(metasearcher)

    def test_resample_without_harness_context_rejected(self):
        updater = CellUpdater(_metasearcher())
        with pytest.raises(ValueError, match="harness"):
            updater.apply([{"op": "resample", "name": "db00", "seed": 2}])


if HAVE_HYPOTHESIS:

    class TestBitIdentityHypothesis:
        @settings(deadline=None, max_examples=8)
        @given(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ["remove", "restore", "replace", "add"]
                    ),
                    st.integers(min_value=0, max_value=9),
                ),
                min_size=1,
                max_size=5,
            )
        )
        def test_random_op_orders_match_rebuild(self, moves):
            updater = CellUpdater(_metasearcher())
            present = {f"db{i:02d}" for i in range(8)}
            removed: set[str] = set()
            paths = [
                ["Root", "Health", "Diseases", "Cancer"],
                ["Root", "Health", "Diseases", "AIDS"],
                ["Root", "Computers", "Programming", "Java"],
                ["Root", "Computers", "Programming", "Databases"],
            ]
            ops = []
            for index, (kind, slot) in enumerate(moves):
                name = f"db{slot:02d}" if slot < 8 else f"new{slot}"
                if kind == "remove" and name in present:
                    ops.append({"op": "remove", "name": name})
                    present.discard(name)
                    removed.add(name)
                elif kind == "restore" and name in removed:
                    ops.append({"op": "restore", "name": name})
                    removed.discard(name)
                    present.add(name)
                elif kind == "replace" and name in present:
                    ops.append(
                        {
                            "op": "replace",
                            "name": name,
                            "summary": summary_payload(
                                _fresh_summary("aids", seed=100 + index)
                            ),
                        }
                    )
                elif kind == "add" and name not in present:
                    ops.append(
                        {
                            "op": "add",
                            "name": name,
                            "summary": summary_payload(
                                _fresh_summary("java", seed=200 + index)
                            ),
                            "path": paths[slot % len(paths)],
                        }
                    )
                    present.add(name)
                    removed.discard(name)
            if not ops or not present:
                return
            metasearcher, info = updater.apply(ops)
            assert info["databases"] == len(present)
            _assert_verified(metasearcher)


def _cell_state(metasearcher: Metasearcher) -> list:
    """Fold order plus every category aggregate, as comparable values."""
    builder = metasearcher.builder
    state: list = [list(builder.database_summaries())]
    for node in metasearcher.hierarchy.nodes():
        summary = builder.category_summary(node.path)
        state.append((node.path, builder.databases_under(node.path), summary.size))
        for regime in ("df", "tf"):
            ids, values = summary.regime_arrays(regime)
            state.append((ids.tolist(), values.tolist()))
    return state


class TestRestorePosition:
    def test_remove_then_restore_as_two_updates(self):
        original = _metasearcher()
        updater = CellUpdater(original)
        updater.apply([{"op": "remove", "name": "db03"}])
        restored, _ = updater.apply([{"op": "restore", "name": "db03"}])
        assert _cell_state(restored) == _cell_state(original)
        for name, shrunk in restored.shrunk_summaries.items():
            assert shrunk.lambdas == original.shrunk_summaries[name].lambdas

    def test_remove_then_restore_in_one_batch(self):
        original = _metasearcher()
        restored, _ = CellUpdater(original).apply(
            [
                {"op": "remove", "name": "db04"},
                {"op": "restore", "name": "db04"},
            ]
        )
        assert _cell_state(restored) == _cell_state(original)

    def test_interleaved_restores_keep_the_order(self):
        original = _metasearcher()
        updater = CellUpdater(original)
        updater.apply(
            [
                {"op": "remove", "name": "db02"},
                {"op": "remove", "name": "db03"},
            ]
        )
        restored, _ = updater.apply(
            [
                {"op": "restore", "name": "db03"},
                {"op": "restore", "name": "db02"},
            ]
        )
        assert _cell_state(restored) == _cell_state(original)
        _assert_verified(restored)


class TestNoOpReplace:
    def test_replace_with_own_payload_keeps_the_cell(self):
        service = _make_service(strategies=("plain", "universal", "shrinkage"))
        requests = [
            (["gen000", "gen001"], algorithm, strategy)
            for algorithm in ("bgloss", "cori", "lm")
            for strategy in ("plain", "universal", "shrinkage")
        ]
        before = [
            service.select(terms, algorithm=algorithm, strategy=strategy)
            for terms, algorithm, strategy in requests
        ]
        cached = len(service.snapshot.cache)
        summary = service.metasearcher.sampled_summaries["db05"]
        result = service.apply_update(
            [{"op": "replace", "name": "db05", "summary": summary_payload(summary)}]
        )
        assert result["em_recomputed"] == 0
        assert result["touched_databases"] == []
        assert result["response_cache_retained"] == cached
        assert service.metasearcher.sampled_summaries["db05"] is summary
        for (terms, algorithm, strategy), first in zip(requests, before):
            again = service.select(terms, algorithm=algorithm, strategy=strategy)
            assert again["cached"] is True
            assert again["ranking"] == first["ranking"]
            assert again["selected"] == first["selected"]

    def test_changed_sample_statistics_still_replace(self):
        original = _metasearcher()
        updater = CellUpdater(original)
        current = original.sampled_summaries["db05"]
        changed = SampledSummary(
            size=current.size,
            df_probs=current.regime_arrays("df"),
            tf_probs=current.regime_arrays("tf"),
            sample_size=current.sample_size,
            sample_df=current.sample_df,
            alpha=current.alpha + 0.01,
            sample_tf=current.sample_tf,
            vocab=current.vocab,
        )
        metasearcher, info = updater.apply(
            [{"op": "replace", "name": "db05", "summary": summary_payload(changed)}]
        )
        assert info["touched_databases"] == ["db05"]
        assert metasearcher.sampled_summaries["db05"].alpha == changed.alpha


class TestStoreLoadedCell:
    def test_every_engine_builds_and_no_serial_fallback(
        self, micro_scale, micro_store, monkeypatch
    ):
        harness.clear_caches()
        harness.configure(cache_dir=micro_store, jobs=1)
        cell = harness.get_cell("trec4", "qbs", False, scale=micro_scale)
        searcher = cell.metasearcher
        assert searcher.has_shrunk_summaries()  # loaded from the store
        vocab = searcher.builder.vocab
        for name, shrunk in searcher.shrunk_summaries.items():
            assert shrunk.vocab is vocab
            assert shrunk.base is searcher.sampled_summaries[name]

        def serial_fallback(*args, **kwargs):
            raise AssertionError("Metasearcher ranked through rank_databases")

        monkeypatch.setattr(metasearcher_module, "rank_databases", serial_fallback)
        searcher.ensure_engines()
        assert set(searcher.engine_scorers()) == {
            (algorithm, strategy)
            for algorithm in ("bgloss", "cori", "lm")
            for strategy in ("plain", "universal", "shrinkage")
        }
        words = list(vocab.words_of(searcher.builder.global_ids()))
        query = [words[3], words[len(words) // 2], "store-oov-term"]
        for algorithm in ("bgloss", "cori", "lm"):
            for strategy in ("plain", "universal", "shrinkage", "hierarchical"):
                for prune in (False, True):
                    if strategy == "hierarchical":
                        searcher.select(
                            query, algorithm=algorithm, strategy=strategy,
                            k=3, prune=prune,
                        )
                        continue
                    assert_serial(
                        searcher, query, algorithm, strategy, 3, prune=prune
                    )

    def test_first_swap_reruns_em_only_for_the_touched_database(
        self, micro_scale, micro_store
    ):
        harness.clear_caches()
        harness.configure(cache_dir=micro_store, jobs=1)
        cell = harness.get_cell("trec4", "qbs", False, scale=micro_scale)
        searcher = cell.metasearcher
        name = list(searcher.sampled_summaries)[1]
        current = searcher.sampled_summaries[name]
        # Same probabilities, different Mandelbrot fit: the aggregates
        # refold to the same bits, so only this database's R(D) changes.
        changed = SampledSummary(
            size=current.size,
            df_probs=current.regime_arrays("df"),
            tf_probs=current.regime_arrays("tf"),
            sample_size=current.sample_size,
            sample_df=current.sample_df,
            alpha=(current.alpha or -1.0) + 0.01,
            sample_tf=current.sample_tf,
            vocab=current.vocab,
        )
        _, info = CellUpdater(searcher).apply(
            [{"op": "replace", "name": name, "summary": summary_payload(changed)}]
        )
        assert info["touched_databases"] == [name]
        assert info["em_recomputed"] == 1
        assert info["shrunk_reused"] == len(searcher.sampled_summaries) - 1


def _make_service(**config_kwargs) -> SelectionService:
    defaults = dict(
        scale="synthetic", request_timeout_seconds=None, default_k=5
    )
    defaults.update(config_kwargs)
    service = SelectionService(_metasearcher(), ServiceConfig(**defaults))
    service.warmup()
    return service


class TestServiceLifecycle:
    def test_hot_swap_bumps_version_and_database_set(self):
        service = _make_service()
        assert service.snapshot.version == 1
        before = service.select(["gen000"], strategy="plain")
        assert before["snapshot_version"] == 1

        result = service.apply_update([{"op": "remove", "name": "db03"}])
        assert result["snapshot_version"] == 2
        assert result["databases"] == 7
        assert result["swap_seconds"] < 0.1
        assert service.stats.swaps == 1

        after = service.select(["gen000"], strategy="plain")
        assert after["snapshot_version"] == 2
        assert not after["cached"]  # the new snapshot's cache is fresh
        assert "db03" not in {e["name"] for e in after["ranking"]}

    def test_update_with_verification(self):
        service = _make_service()
        result = service.apply_update(
            [
                {
                    "op": "replace",
                    "name": "db02",
                    "summary": summary_payload(_fresh_summary(seed=77)),
                }
            ],
            verify=True,
        )
        assert result["verification"]["verified"], result["verification"]
        assert result["verification"]["max_lambda_delta"] == 0.0

    def test_plain_only_updates_run_no_em(self):
        """A plain-only cell holds no R(D) and an update gives it none:
        no EM runs, only the plain matrix is built, and the updated cell
        still equals a rebuild bit for bit."""
        service = SelectionService(
            _metasearcher(shrunk=False),
            ServiceConfig(
                scale="synthetic",
                request_timeout_seconds=None,
                default_k=5,
                strategies=("plain",),
            ),
        )
        service.warmup()
        counters = get_instrumentation().counters

        def em_count() -> int:
            return counters.get("em.runs", 0) + counters.get("em.cache_hit", 0)

        for ops in (
            [{"op": "remove", "name": "db03"}],
            [{"op": "restore", "name": "db03"}],
            [{"op": "remove", "name": "db05"}, {"op": "restore", "name": "db05"}],
        ):
            before = em_count()
            result = service.apply_update(ops)
            assert em_count() == before
            assert (result["em_recomputed"], result["shrunk_reused"]) == (0, 0)
            metasearcher = service.metasearcher
            assert not metasearcher.has_shrunk_summaries()
            assert set(metasearcher.engine_matrices()) == {"set:plain"}
            _assert_verified(metasearcher)
        assert result["unchanged"]

    def test_malformed_update_leaves_snapshot(self):
        service = _make_service()
        with pytest.raises(ValueError):
            service.apply_update([{"op": "remove", "name": "nope"}])
        assert service.snapshot.version == 1
        assert service.stats.swaps == 0

    def test_deadline_runs_from_request_arrival(self):
        # A request that spent its whole budget queued (arrival long ago)
        # must degrade immediately, even though scoring itself is fast.
        service = _make_service(request_timeout_seconds=5.0)
        response = service.select(
            ["gen000", "gen002"],
            algorithm="cori",
            strategy="shrinkage",
            arrival=time.monotonic() - 60.0,
        )
        assert response["degraded"]
        assert response["ranking"]
        fresh = service.select(
            ["gen001", "gen003"],
            algorithm="cori",
            strategy="shrinkage",
            arrival=time.monotonic(),
        )
        assert not fresh["degraded"]

    def test_concurrent_selects_during_swaps(self):
        service = _make_service()
        # Database sets every snapshot version may legally serve.
        expected = {1: set(service.snapshot.databases)}
        stop = threading.Event()
        failures: list[str] = []

        def hammer(seed: int) -> int:
            served = 0
            queries = [["gen%03d" % (seed + i), "gen%03d" % i] for i in range(8)]
            while not stop.is_set():
                response = service.select(
                    queries[served % len(queries)],
                    algorithm="cori",
                    strategy="plain",
                )
                served += 1
                version = response["snapshot_version"]
                names = {entry["name"] for entry in response["ranking"]}
                allowed = expected.get(version)
                if allowed is not None and names != allowed:
                    failures.append(
                        f"v{version}: got {sorted(names)}, "
                        f"expected {sorted(allowed)}"
                    )
            return served

        with ThreadPoolExecutor(max_workers=6) as pool:
            workers = [pool.submit(hammer, seed) for seed in range(6)]
            try:
                for name in ("db01", "db05", "db02"):
                    result = service.apply_update(
                        [{"op": "remove", "name": name}]
                    )
                    expected[result["snapshot_version"]] = set(
                        service.snapshot.databases
                    )
                    result = service.apply_update(
                        [{"op": "restore", "name": name}]
                    )
                    expected[result["snapshot_version"]] = set(
                        service.snapshot.databases
                    )
            finally:
                stop.set()
            served = sum(worker.result(timeout=30) for worker in workers)
        assert not failures, failures[:5]
        assert served > 0
        assert service.snapshot.version == 7
        assert len(service.snapshot.cache) <= service.config.response_cache_size

    def test_introspection_stays_fast_under_select_saturation(self):
        service = _make_service()
        stop = threading.Event()

        def hammer(seed: int) -> None:
            index = 0
            while not stop.is_set():
                service.select(
                    ["gen%03d" % ((seed * 7 + index) % 40), "extra"],
                    algorithm="cori",
                    strategy="shrinkage",
                )
                index += 1

        with ThreadPoolExecutor(max_workers=8) as pool:
            workers = [pool.submit(hammer, seed) for seed in range(8)]
            try:
                latencies = []
                for _ in range(200):
                    start = time.perf_counter()
                    health = service.describe()
                    stats = service.stats_snapshot()
                    latencies.append(time.perf_counter() - start)
                    assert health["status"] == "ok"
                    assert stats["requests"] >= 0
            finally:
                stop.set()
            for worker in workers:
                worker.result(timeout=30)
        latencies.sort()
        p99 = latencies[int(len(latencies) * 0.99) - 1]
        assert p99 < 0.010, f"healthz/stats p99 {p99 * 1000:.2f}ms"


class TestParseUpdateRequest:
    def test_accepts_ops_and_verify(self):
        ops = [{"op": "remove", "name": "db00"}]
        assert parse_update_request({"ops": ops, "verify": True}) == {
            "ops": ops,
            "verify": True,
        }

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"ops": "remove db00"},
            {"ops": []},
            {"ops": [{"op": "remove", "name": "x"}], "verify": "yes"},
        ],
    )
    def test_rejects(self, payload):
        with pytest.raises(ValueError):
            parse_update_request(payload)


class TestHttpUpdateRoundTrip:
    @pytest.fixture(scope="class")
    def server_and_client(self):
        service = _make_service()
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServingClient(f"http://{host}:{port}", timeout=30.0)
        yield service, server, client
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

    def test_update_round_trip_with_verification(self, server_and_client):
        service, _, client = server_and_client
        response = client.update(
            [{"op": "remove", "name": "db06"}], verify=True
        )
        assert response["snapshot_version"] == 2
        assert response["verification"]["verified"]
        ranking = client.select(["gen000"], strategy="plain")
        assert ranking["snapshot_version"] == 2
        assert "db06" not in {e["name"] for e in ranking["ranking"]}
        restored = client.update([{"op": "restore", "name": "db06"}])
        assert restored["databases"] == 8

    def test_bad_op_is_http_400(self, server_and_client):
        _, _, client = server_and_client
        with pytest.raises(ServingError) as excinfo:
            client.update([{"op": "remove", "name": "missing"}])
        assert excinfo.value.status == 400
        with pytest.raises(ServingError) as excinfo:
            client.update([])
        assert excinfo.value.status == 400


class TestRehoming:
    def test_rehome_preserves_probabilities_bitwise(self):
        from repro.core.vocab import Vocabulary

        summary = _fresh_summary()
        vocab = Vocabulary()
        vocab.intern_many(["unrelated", "words", "first"])
        rehomed = rehome_summary(summary, vocab)
        assert rehomed.vocab is vocab
        assert isinstance(rehomed, SampledSummary)
        assert rehomed.sample_size == summary.sample_size
        for word in summary.words():
            assert rehomed.p(word) == summary.p(word)
            assert rehomed.tf_p(word) == summary.tf_p(word)

    def test_rehome_is_identity_when_already_home(self):
        summary = _fresh_summary()
        assert rehome_summary(summary, summary.vocab) is summary
