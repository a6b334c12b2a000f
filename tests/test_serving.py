"""Serving layer: bounded caches, degradation, HTTP round trips.

The acceptance bar from DESIGN.md §5c: a long stream of *distinct*
queries must leave every per-query cache at or under its bound (memory
stays flat), adaptive requests that blow the per-request budget must
degrade to plain scoring rather than fail, and the stdlib HTTP front end
must answer concurrent clients. The service under test is built from the
synthetic cell (fast) rather than a harness cell; ``from_harness`` is
covered by the CLI smoke tests.
"""

import json
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.lru import MISSING, LruCache
from repro.selection.base import QUERY_IDS_CACHE_SIZE
from repro.selection.metasearcher import Metasearcher
from repro.serving.client import ServingClient, ServingError
from repro.serving.loadgen import (
    generate_queries,
    run_load,
    service_vocabulary,
)
from repro.serving.server import make_server
from repro.serving.service import (
    SelectionService,
    ServiceConfig,
    normalize_query,
    parse_request,
)
from tests.test_columnar_equivalence import _synthetic_cell


class TestLruCache:
    def test_put_get_roundtrip(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert cache.get("missing") is None
        assert cache.get("missing", 0) == 0

    def test_eviction_is_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is the eviction victim
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_size_never_exceeds_maxsize(self):
        cache = LruCache(8)
        for index in range(1000):
            cache.put(index, index)
            assert len(cache) <= 8
        assert len(cache) == 8

    def test_zero_maxsize_disables(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_overwrite_updates_value(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_clear(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_missing_sentinel_distinguishes_cached_falsy_values(self):
        # Regression: `get(key) or compute()` treated cached None/0/[]
        # as misses and recomputed (or re-queried) every time. The
        # MISSING sentinel makes a cached falsy value a hit.
        cache = LruCache(4)
        cache.put("none", None)
        cache.put("zero", 0)
        cache.put("empty", [])
        assert cache.get("none", MISSING) is None
        assert cache.get("zero", MISSING) == 0
        assert cache.get("empty", MISSING) == []
        assert cache.get("absent", MISSING) is MISSING
        assert repr(MISSING) == "<MISSING>"


def _make_service(**config_kwargs) -> SelectionService:
    hierarchy, summaries, classifications = _synthetic_cell(
        shared_vocab=True
    )
    metasearcher = Metasearcher(hierarchy, summaries, classifications)
    defaults = dict(
        scale="synthetic", request_timeout_seconds=None, default_k=5
    )
    defaults.update(config_kwargs)
    service = SelectionService(metasearcher, ServiceConfig(**defaults))
    service.warmup()
    return service


@pytest.fixture(scope="module")
def service():
    return _make_service()


class TestStrategyGatingAndPrune:
    def test_unserved_strategy_rejected(self):
        service = _make_service(strategies=("plain",))
        with pytest.raises(ValueError, match="not served"):
            service.select(["gen000"], strategy="shrinkage")
        response = service.select(["gen000"], strategy="plain")
        assert response["strategy"] == "plain"

    def test_plain_only_service_never_shrinks(self):
        service = _make_service(strategies=("plain",))
        # Warmup covered only the served strategies, so the (expensive)
        # EM shrinkage build must never have been triggered.
        assert service.metasearcher._shrunk is None

    def test_pruned_responses_match_full_first_k(self):
        baseline = _make_service()
        pruned = _make_service(prune=True)
        for query in (["gen000", "gen001"], ["cancer000"], ["oov-term"]):
            for strategy in ("plain", "universal", "shrinkage"):
                a = baseline.select(
                    query, algorithm="cori", strategy=strategy, k=3
                )
                b = pruned.select(
                    query, algorithm="cori", strategy=strategy, k=3
                )
                assert b["selected"] == a["selected"]
                assert b["ranking"][:3] == a["ranking"][:3]

    def test_pruned_response_reports_candidates_scored(self):
        service = _make_service(prune=True)
        response = service.select(
            ["gen000"], algorithm="cori", strategy="plain", k=3
        )
        databases = len(service.metasearcher.sampled_summaries)
        assert response["candidates_scored"] is not None
        assert 0 < response["candidates_scored"] <= databases

    def test_ranking_limit_caps_response(self):
        service = _make_service(ranking_limit=2)
        response = service.select(["gen000"], strategy="plain", k=3)
        assert len(response["ranking"]) <= 2

    def test_describe_reports_gating(self):
        service = _make_service(strategies=("plain",), prune=True)
        description = service.describe()
        assert description["strategies"] == ["plain"]
        assert description["prune"] is True


class TestNormalizeAndParse:
    def test_string_query_splits_and_lowercases(self):
        assert normalize_query("Breast Cancer") == ("breast", "cancer")

    def test_list_query(self):
        assert normalize_query(["AIDS", "care"]) == ("aids", "care")

    def test_parse_request_minimal(self):
        assert parse_request({"query": "a b"}) == {"query": "a b"}

    def test_parse_request_full(self):
        kwargs = parse_request(
            {
                "query": ["a"],
                "algorithm": "lm",
                "strategy": "plain",
                "k": "3",
                "timeout_seconds": 0.25,
            }
        )
        assert kwargs == {
            "query": ["a"],
            "algorithm": "lm",
            "strategy": "plain",
            "k": 3,
            "timeout_seconds": 0.25,
        }

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"query": 7},
            {"query": ["ok", 3]},
            {"query": "a", "k": "three"},
            {"query": "a", "timeout_seconds": "soon"},
            # int() would serve the first three as k = 1, 0 and 2.
            {"query": "a", "k": True},
            {"query": "a", "k": False},
            {"query": "a", "k": 2.7},
            {"query": "a", "k": float("inf")},
            # A NaN deadline never fires; a negative one has already passed.
            {"query": "a", "timeout_seconds": float("nan")},
            {"query": "a", "timeout_seconds": float("inf")},
            {"query": "a", "timeout_seconds": -1},
            {"query": "a", "timeout_seconds": "nan"},
            {"query": "a", "timeout_seconds": True},
            # float() raises OverflowError on an integer past 1e308.
            {"query": "a", "timeout_seconds": 10**400},
        ],
    )
    def test_parse_request_rejects(self, payload):
        with pytest.raises(ValueError):
            parse_request(payload)

    def test_parse_request_accepts_integral_k_and_zero_timeout(self):
        kwargs = parse_request(
            {"query": "a", "k": 4.0, "timeout_seconds": 0}
        )
        assert kwargs["k"] == 4 and isinstance(kwargs["k"], int)
        assert kwargs["timeout_seconds"] == 0.0


class TestSelectionService:
    def test_basic_select_shape(self, service):
        response = service.select(
            "gen000 gen004", algorithm="cori", strategy="shrinkage", k=3
        )
        assert response["algorithm"] == "cori"
        assert response["query"] == ["gen000", "gen004"]
        assert not response["degraded"]
        assert not response["cached"]
        assert len(response["ranking"]) == len(
            service.metasearcher.sampled_summaries
        )
        assert len(response["selected"]) <= 3
        scores = [entry["score"] for entry in response["ranking"]]
        assert scores == sorted(scores, reverse=True)
        selected_names = {
            entry["name"]
            for entry in response["ranking"]
            if entry["selected"]
        }
        assert set(response["selected"]) == selected_names

    def test_repeat_query_served_from_cache(self):
        service = _make_service()
        before = service.stats.cache_hits
        first = service.select(["gen001"], algorithm="lm", strategy="plain")
        second = service.select(["gen001"], algorithm="lm", strategy="plain")
        assert not first["cached"]
        assert second["cached"]
        assert second["selected"] == first["selected"]
        assert service.stats.cache_hits == before + 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "pagerank"},
            {"strategy": "magic"},
            {"k": 0},
            {"k": -2},
        ],
    )
    def test_invalid_requests_rejected(self, service, kwargs):
        with pytest.raises(ValueError):
            service.select(["gen000"], **kwargs)

    def test_zero_timeout_degrades_adaptive_request(self):
        service = _make_service(request_timeout_seconds=0.0)
        response = service.select(
            ["gen000", "gen003"], algorithm="cori", strategy="shrinkage"
        )
        assert response["degraded"]
        assert response["ranking"]  # still answered, from the plain path
        assert service.stats.degraded == 1

    def test_degraded_answer_is_not_cached(self):
        # A degraded answer reflects one request's budget: a later
        # request for the same query with a full budget must get the
        # strategy it asked for, not the cached plain fallback.
        service = _make_service()
        query = ["gen000", "gen004"]
        degraded = service.select(
            query, algorithm="cori", strategy="shrinkage", timeout_seconds=-1
        )
        assert degraded["degraded"]
        assert len(service.snapshot.cache) == 0
        full = service.select(
            query, algorithm="cori", strategy="shrinkage", timeout_seconds=60
        )
        assert not full["cached"]
        assert not full["degraded"]
        reference = _make_service().select(
            query, algorithm="cori", strategy="shrinkage", timeout_seconds=60
        )
        assert full["shrinkage_applications"] == reference[
            "shrinkage_applications"
        ]
        assert full["shrinkage_applications"] > 0
        assert full["ranking"] == reference["ranking"]
        # The full answer is cached as usual.
        again = service.select(
            query, algorithm="cori", strategy="shrinkage", timeout_seconds=60
        )
        assert again["cached"] and not again["degraded"]

    def test_plain_requests_never_degrade(self):
        service = _make_service(request_timeout_seconds=0.0)
        response = service.select(
            ["gen000"], algorithm="cori", strategy="plain"
        )
        assert not response["degraded"]

    def test_caches_stay_bounded_under_distinct_query_stream(self):
        service = _make_service(response_cache_size=64)
        queries = generate_queries(
            service_vocabulary(service), count=1100, seed=7
        )
        for index, query in enumerate(queries):
            strategy = "shrinkage" if index % 10 == 0 else "plain"
            service.select(query, algorithm="cori", strategy=strategy)
        sizes = service.cache_sizes()
        assert sizes["responses"] <= 64
        for key, size in sizes.items():
            if key.startswith("query_ids."):
                assert size <= QUERY_IDS_CACHE_SIZE, (key, size)
        # The batched matrices' resolved-id caches are bounded too.
        for matrix in service.metasearcher.engine_matrices().values():
            assert len(matrix._ids_cache) <= matrix._ids_cache.maxsize
        assert service.stats.requests == len(queries)

    def test_concurrent_in_process_requests(self, service):
        queries = generate_queries(
            service_vocabulary(service), count=40, seed=3
        )

        def issue(query):
            return service.select(query, algorithm="lm", strategy="plain")

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(issue, queries))
        assert len(responses) == len(queries)
        assert all(response["ranking"] for response in responses)


class TestHttpRoundTrip:
    @pytest.fixture(scope="class")
    def server_and_client(self):
        service = _make_service()
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServingClient(f"http://{host}:{port}", timeout=10.0)
        yield service, server, client
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

    def test_healthz(self, server_and_client):
        service, _, client = server_and_client
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["databases"] == len(
            service.metasearcher.sampled_summaries
        )

    def test_select_round_trip(self, server_and_client):
        _, _, client = server_and_client
        response = client.select(
            ["gen000", "gen002"], algorithm="bgloss", strategy="universal"
        )
        assert response["algorithm"] == "bgloss"
        assert response["ranking"]

    def test_bad_algorithm_is_http_400(self, server_and_client):
        _, _, client = server_and_client
        with pytest.raises(ServingError) as excinfo:
            client.select(["gen000"], algorithm="pagerank")
        assert excinfo.value.status == 400

    def test_malformed_body_is_http_400(self, server_and_client):
        _, _, client = server_and_client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/select",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "body",
        [
            b'{"query": "gen000", "k": 2.7}',
            b'{"query": "gen000", "timeout_seconds": NaN}',
        ],
    )
    def test_malformed_k_or_timeout_is_http_400(self, server_and_client, body):
        _, _, client = server_and_client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/select",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_path_is_http_404(self, server_and_client):
        _, _, client = server_and_client
        with pytest.raises(ServingError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404

    def test_stats_reports_bounded_caches(self, server_and_client):
        _, _, client = server_and_client
        stats = client.stats()
        local, pool = stats["local"], stats["pool"]
        assert local["requests"] >= 1
        assert (
            local["cache_sizes"]["responses"]
            <= local["response_cache_maxsize"]
        )
        # Single-process server: the pool section is a one-worker view
        # of the same counters, plus the snapshot epoch.
        assert pool["workers"] == 1
        assert pool["requests"] == local["requests"]
        assert pool["epoch"] == local["epoch"] == local["snapshot_version"]
        assert "shm_segment" in local

    def test_concurrent_http_clients(self, server_and_client):
        service, _, client = server_and_client
        queries = generate_queries(
            service_vocabulary(service), count=24, seed=11
        )

        def issue(query):
            return client.select(query, algorithm="cori", strategy="plain")

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(issue, queries))
        assert all(response["ranking"] for response in responses)


class TestLoadGenerator:
    def test_generated_queries_are_distinct(self):
        queries = generate_queries(["alpha", "beta"], count=300, seed=0)
        assert len(queries) == 300
        assert len({tuple(query) for query in queries}) == 300

    def test_generation_is_deterministic(self):
        first = generate_queries(["alpha", "beta"], count=20, seed=5)
        second = generate_queries(["alpha", "beta"], count=20, seed=5)
        assert first == second

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            generate_queries([], count=5)

    def test_invalid_generation_knobs_rejected(self):
        # Regression: a zero min_terms generated empty queries (instant
        # 400s from the server), max_terms < min_terms crashed inside
        # numpy's integers(), and an out-of-range oov_rate silently
        # clamped the miss-path mix the run claimed to measure.
        with pytest.raises(ValueError, match="min_terms"):
            generate_queries(["alpha"], count=3, min_terms=0)
        with pytest.raises(ValueError, match="max_terms"):
            generate_queries(["alpha"], count=3, min_terms=3, max_terms=2)
        with pytest.raises(ValueError, match="oov_rate"):
            generate_queries(["alpha"], count=3, oov_rate=1.5)
        with pytest.raises(ValueError, match="oov_rate"):
            generate_queries(["alpha"], count=3, oov_rate=-0.1)

    def test_empty_cell_vocabulary_rejected(self):
        stub = types.SimpleNamespace(
            metasearcher=types.SimpleNamespace(sampled_summaries={})
        )
        with pytest.raises(ValueError, match="no sampled summaries"):
            service_vocabulary(stub)

    def test_run_load_summary(self, service):
        queries = generate_queries(
            service_vocabulary(service), count=25, seed=1
        )
        summary = run_load(
            service.select, queries, algorithm="lm", strategy="plain", k=3
        )
        assert summary["requests"] == 25
        assert summary["qps"] > 0
        assert summary["latency_p99_ms"] >= summary["latency_p50_ms"]
        assert summary["degraded"] == 0
        assert json.dumps(summary)  # JSON-serializable for the trajectory


class _FakeClock:
    """A deterministic monotonic clock advanced by the fake select."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestLoadgenThroughputAccounting:
    """Regression: qps used to divide by wall time that included one-time

    ramp-up costs (connection setup, a server still settling after boot),
    understating steady-state throughput. The fix anchors the throughput
    window at the *first response's completion*: n-1 responses over the
    time between first and last completion.
    """

    def test_qps_measured_from_first_response(self):
        clock = _FakeClock()
        latencies = iter([10.0, 1.0, 1.0, 1.0, 1.0])  # slow cold start

        def select(terms, algorithm, strategy, k):
            clock.now += next(latencies)
            return {"selected": ["a"], "degraded": False}

        queries = [[f"q{i}"] for i in range(5)]
        summary = run_load(select, queries, clock=clock)
        # Completions land at t=10,11,12,13,14: four steady-state
        # responses over four seconds.
        assert summary["qps"] == pytest.approx(1.0)
        assert summary["measured_seconds"] == pytest.approx(4.0)
        # The whole-run wall still includes the ramp-up, for reference —
        # and dividing by it would have (wrongly) given 5/14 qps.
        assert summary["wall_seconds"] == pytest.approx(14.0)
        assert summary["latency_mean_ms"] == pytest.approx(2800.0)

    def test_single_request_falls_back_to_wall(self):
        clock = _FakeClock()

        def select(terms, algorithm, strategy, k):
            clock.now += 2.0
            return {"selected": []}

        summary = run_load(select, [["only"]], clock=clock)
        assert summary["requests"] == 1
        assert summary["qps"] == pytest.approx(0.5)

    def test_concurrent_run_issues_every_query_exactly_once(self, service):
        issued = []
        lock = threading.Lock()

        def select(terms, algorithm, strategy, k):
            with lock:
                issued.append(tuple(terms))
            return service.select(
                terms, algorithm=algorithm, strategy=strategy, k=k
            )

        queries = generate_queries(
            service_vocabulary(service), count=40, seed=3
        )
        summary = run_load(select, queries, concurrency=4)
        assert summary["requests"] == 40
        assert summary["concurrency"] == 4
        assert sorted(issued) == sorted(tuple(q) for q in queries)

    def test_worker_error_propagates(self):
        def select(terms, algorithm, strategy, k):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_load(select, [["a"], ["b"]], concurrency=2)

    def test_first_error_stops_every_worker(self):
        # Regression: only the thread that saw the error stopped; the
        # other workers replayed the entire remaining stream against a
        # broken server before the error finally surfaced after join.
        issued = []
        lock = threading.Lock()

        def select(terms, algorithm, strategy, k):
            with lock:
                issued.append(tuple(terms))
            raise RuntimeError("broken backend")

        queries = [[f"q{i}"] for i in range(200)]
        with pytest.raises(RuntimeError, match="broken backend"):
            run_load(select, queries, concurrency=4)
        # Each worker issues at most one request before the shared stop
        # flag halts the run — nowhere near the 200-query stream.
        assert len(issued) <= 4

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            run_load(lambda *a: {}, [["a"]], concurrency=0)


class TestServingImports:
    def test_serving_stack_loads_no_scipy(self):
        """scipy (~0.7 s to import) loads only inside the statistics
        functions that call it, never on the serving path."""
        code = (
            "import sys\n"
            "import repro.cli, repro.serving.workers, repro.evaluation.harness\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert output.strip() == "[]"
