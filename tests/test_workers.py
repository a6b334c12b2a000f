"""Worker-process serving: N forked workers, one shared snapshot.

The acceptance bar from ISSUE/DESIGN §5f: results served by ``--workers
N`` are bit-identical to the single-process service; a hot swap
mid-flight flips every worker to the new epoch before the update call
returns (zero cross-epoch responses afterwards) and verifies against a
from-scratch rebuild; killing a worker (SIGTERM) gets it respawned
without dropping the pool; ``/healthz`` stays lock-free under load; and
no code path — including worker death and shutdown — orphans a
``/dev/shm`` segment.

Everything runs over the synthetic cell on loopback. Request counts stay
small: the contract under test is coordination correctness, not
throughput (this container may have a single core; scaling curves live
in the bench trajectory, recorded where cores exist).
"""

import glob
import os
import signal
import threading
import time

import pytest

from repro.evaluation.instrument import get_instrumentation
from repro.selection.metasearcher import Metasearcher
from repro.serving import shm
from repro.serving.client import ServingClient, ServingError
from repro.serving.lifecycle import summary_payload
from repro.serving.service import SelectionService, ServiceConfig
from repro.serving.workers import WorkerPool, _WorkerRuntime, fork_available
from tests.test_columnar_equivalence import _synthetic_cell
from tests.test_lifecycle import _fresh_summary

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool requires os.fork"
)

QUERIES = [
    ["gen000", "gen003"],
    ["cancer000", "gen001"],
    ["some-oov-term", "gen002"],
]
ADD_OP = {
    "op": "add",
    "name": "dbnew",
    "path": ["Root", "Health", "Diseases", "Cancer"],
}


def _make_service() -> SelectionService:
    hierarchy, summaries, classifications = _synthetic_cell(shared_vocab=True)
    metasearcher = Metasearcher(hierarchy, summaries, classifications)
    service = SelectionService(
        metasearcher,
        ServiceConfig(
            scale="synthetic", request_timeout_seconds=None, default_k=5
        ),
    )
    service.warmup()
    return service


def _shm_entries() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}_*"))


def _ranking(response: dict) -> list[tuple[str, float, bool]]:
    return [
        (entry["name"], entry["score"], entry["selected"])
        for entry in response["ranking"]
    ]


def _add_op() -> dict:
    return dict(ADD_OP, summary=summary_payload(_fresh_summary()))


def _noop_replace(service: SelectionService, name: str = "db03") -> dict:
    """Replace ``name`` with its own summary: the cell stays identical."""
    summary = service.metasearcher.sampled_summaries[name]
    return {"op": "replace", "name": name, "summary": summary_payload(summary)}


@pytest.fixture
def clean_shm():
    """Assert the test leaves /dev/shm exactly as it found it."""
    before = _shm_entries()
    yield
    assert _shm_entries() == before


class TestWorkerPoolServing:
    def test_two_workers_bit_identical_to_single_process(self, clean_shm):
        baseline = _make_service()
        with WorkerPool(_make_service(), workers=2) as pool:
            client = ServingClient(pool.url)
            pids = set()
            for query in QUERIES:
                for algorithm in ("bgloss", "cori", "lm"):
                    for strategy in ("plain", "shrinkage", "universal"):
                        expected = baseline.select(
                            query, algorithm=algorithm, strategy=strategy, k=5
                        )
                        observed = client.select(
                            query, algorithm=algorithm, strategy=strategy, k=5
                        )
                        assert _ranking(observed) == _ranking(expected), (
                            query,
                            algorithm,
                            strategy,
                        )
                        assert (
                            observed["selected"] == expected["selected"]
                        )
            # Which worker accepts a connection on the shared socket is
            # the kernel's choice: probe until both have answered, up to
            # a fixed bound.
            for _ in range(200):
                pids.add(client.healthz()["pid"])
                if len(pids) == 2:
                    break
            assert pids <= set(pool.worker_pids)
            assert len(pids) == 2

    @pytest.mark.parametrize("workers", [3, 4])
    def test_wider_pools_serve_and_clean_up(self, workers, clean_shm):
        with WorkerPool(_make_service(), workers=workers) as pool:
            assert len(pool.worker_pids) == workers
            client = ServingClient(pool.url)
            for query in QUERIES:
                response = client.select(query, algorithm="cori", k=5)
                assert response["snapshot_version"] == 1
            assert len(_shm_entries()) == 1


class TestEpochFlip:
    def test_hot_swap_mid_flight_with_verify(self, clean_shm):
        with WorkerPool(_make_service(), workers=2) as pool:
            client = ServingClient(pool.url, timeout=120.0)
            stop = threading.Event()
            responses: list[tuple[float, dict]] = []
            errors: list[Exception] = []

            def stream() -> None:
                streamer = ServingClient(pool.url, timeout=120.0)
                index = 0
                while not stop.is_set():
                    sent_at = time.monotonic()
                    try:
                        response = streamer.select(
                            ["gen001", f"q{index:04d}"],
                            algorithm="cori",
                            strategy="shrinkage",
                            k=5,
                        )
                        responses.append((sent_at, response))
                    except (ServingError, OSError) as error:
                        errors.append(error)
                    index += 1

            threads = [
                threading.Thread(target=stream, daemon=True)
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # selects in flight on epoch 1

            result = client.update([_add_op()], verify=True)
            update_returned = time.monotonic()

            # The update was bit-verified against a from-scratch rebuild
            # on the dispatcher before any worker flipped.
            assert result["verification"]["verified"], result["verification"]
            assert result["epoch"] == 2
            assert result["workers_flipped"] == 2
            assert result["workers"] == 2

            # The ack barrier means no worker still publishes epoch 1
            # to requests accepted from here on.
            post_swap = [
                client.select(query, algorithm="cori", k=5)
                for query in QUERIES
            ]
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            for response in post_swap:
                assert response["snapshot_version"] == 2
                names = [e["name"] for e in response["ranking"]]
                assert "dbnew" in names
            # Zero cross-epoch responses: every request SENT after the
            # update returned must see epoch 2.  (A request sent before
            # the flip may legitimately complete — and be appended —
            # after the update returns, still carrying epoch 1.)
            for sent_at, response in responses:
                if sent_at > update_returned:
                    assert response["snapshot_version"] == 2
            # The streamed responses saw only real epochs, never a tear.
            assert {r["snapshot_version"] for _, r in responses} <= {1, 2}
            assert not errors, errors[:3]
            # Old segment unlinked after the drain; exactly one remains.
            assert len(_shm_entries()) == 1
            assert result["segment"] in _shm_entries()[0]

    def test_consecutive_swaps_keep_journal_replay_exact(self, clean_shm):
        baseline = _make_service()
        with WorkerPool(_make_service(), workers=2) as pool:
            client = ServingClient(pool.url, timeout=120.0)
            first = _add_op()
            second = {"op": "remove", "name": "db03"}
            for epoch, ops in ((2, [first]), (3, [second])):
                result = client.update(ops, verify=True)
                assert result["epoch"] == epoch
                assert result["workers_flipped"] == 2
                assert result["verification"]["verified"]
                baseline.apply_update(ops)
            for query in QUERIES:
                expected = baseline.select(query, algorithm="lm", k=5)
                observed = client.select(query, algorithm="lm", k=5)
                assert _ranking(observed) == _ranking(expected)
            assert len(_shm_entries()) == 1


class TestConcurrentFlip:
    def test_workers_catch_up_at_the_same_time(self, clean_shm, monkeypatch):
        original = _WorkerRuntime.flip

        def slow_flip(self, *args, **kwargs):
            time.sleep(0.5)
            return original(self, *args, **kwargs)

        # Patched before the fork, so both workers inherit the delay.
        monkeypatch.setattr(_WorkerRuntime, "flip", slow_flip)
        service = _make_service()
        with WorkerPool(service, workers=2) as pool:
            start = time.perf_counter()
            result = pool.apply_update([_noop_replace(service)])
            elapsed = time.perf_counter() - start
        assert result["workers_flipped"] == 2
        # One after the other the two flips alone take 1.0 s.
        assert elapsed < 0.9, elapsed


class TestPoolCacheRetention:
    def test_noop_replace_reports_what_the_workers_kept(self, clean_shm):
        service = _make_service()
        with WorkerPool(service, workers=2) as pool:
            client = ServingClient(pool.url, timeout=30.0)
            # One connection per request: the kernel spreads them over
            # both workers' caches.
            for index in range(16):
                client.select(["gen000", f"c{index:03d}"], algorithm="bgloss", k=5)
            result = pool.apply_update([_noop_replace(service)])
            # Each worker's own count, from a fresh telemetry poll.
            assert pool.collect_telemetry()
            own = {
                str(pid): handle.telemetry["service"]["cache_sizes"]["responses"]
                for pid, handle in pool._workers.items()
            }
        assert result["response_cache_retained"] > 0
        assert result["worker_cache_retained"] == own
        assert result["response_cache_retained"] == sum(own.values())


class TestWorkerDeath:
    def test_sigterm_worker_respawned_and_pool_survives(self, clean_shm):
        with WorkerPool(_make_service(), workers=2) as pool:
            client = ServingClient(pool.url, timeout=120.0)
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGTERM)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if (
                    pool.respawns >= 1
                    and len(pool.worker_pids) == 2
                    and victim not in pool.worker_pids
                ):
                    break
                time.sleep(0.05)
            assert pool.respawns >= 1
            assert len(pool.worker_pids) == 2
            assert victim not in pool.worker_pids
            # The pool keeps serving throughout and after the respawn,
            # and a subsequent hot swap still reaches both workers.
            for query in QUERIES:
                assert client.select(query, k=5)["snapshot_version"] == 1
            result = client.update([_add_op()], verify=False)
            assert result["workers_flipped"] == 2
            assert client.select(QUERIES[0], k=5)["snapshot_version"] == 2
            # Dead worker orphaned nothing: one live segment, owned by
            # the dispatcher.
            assert len(_shm_entries()) == 1
        assert _shm_entries() == []


def _parse_metrics(text: str) -> dict[str, float]:
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        series[key] = float(value)
    return series


class TestPoolTelemetry:
    def test_pool_metrics_count_requests_exactly(self, clean_shm):
        """The ISSUE acceptance bar: dispatcher-aggregated /metrics request
        count equals the load generator's completed count EXACTLY — no
        sampling, no lost increments across workers, threads, or the
        delta-ship/merge path."""
        # Earlier tests in this process ran in-process selects that landed
        # in the dispatcher-side global registry; the parity assertion
        # needs a clean slate.
        get_instrumentation().reset()
        with WorkerPool(_make_service(), workers=2) as pool:
            completed: list[int] = []
            errors: list[Exception] = []
            mid_load_metrics: list[str] = []

            def load(tid: int) -> None:
                load_client = ServingClient(pool.url, timeout=60.0)
                for index in range(30):
                    try:
                        load_client.select(
                            ["gen000", f"t{tid}q{index:03d}"],
                            algorithm="cori",
                            strategy="shrinkage",
                            k=5,
                        )
                        completed.append(1)
                    except (ServingError, OSError) as error:
                        errors.append(error)
                    if tid == 0 and index == 15:
                        # A scrape mid-load must answer promptly (never
                        # queue behind scoring) even while both workers
                        # are busy.
                        mid_load_metrics.append(load_client.metrics())

            threads = [
                threading.Thread(target=load, args=(tid,), daemon=True)
                for tid in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors[:3]

            client = ServingClient(pool.url, timeout=30.0)
            series = _parse_metrics(client.metrics())
            key = 'repro_serve_http_requests_total{endpoint="select",status="ok"}'
            assert series[key] == len(completed) == 90

            # Per-phase latency histograms are present for /select, with
            # exact counts matching the request count.
            for phase in ("parse", "cache", "select", "serialize"):
                count_key = (
                    "repro_serve_phase_seconds_count"
                    f'{{endpoint="select",phase="{phase}"}}'
                )
                assert series[count_key] == 90, count_key
                quantile_key = (
                    "repro_serve_phase_seconds"
                    f'{{endpoint="select",phase="{phase}",quantile="0.99"}}'
                )
                assert series[quantile_key] >= 0.0
            assert mid_load_metrics and "repro_" in mid_load_metrics[0]

    def test_pool_stats_sum_worker_locals(self, clean_shm):
        """/stats pool aggregate == sum of the per-worker local counters."""
        get_instrumentation().reset()
        with WorkerPool(_make_service(), workers=2) as pool:
            client = ServingClient(pool.url, timeout=30.0)
            for index in range(20):
                client.select(["gen000", f"s{index:03d}"], k=5)
            # A metrics scrape forces a fresh telemetry poll, so the
            # subsequent /stats detail reflects every completed request.
            client.metrics()
            stats = client.stats()
            pool_section = stats["pool"]
            assert pool_section["workers"] == 2
            detail = pool_section["worker_detail"]
            assert len(detail) == 2
            assert sum(w["requests"] for w in detail) == 20
            assert pool_section["requests"] == 20
            assert pool_section["errors"] == 0
            assert {w["epoch"] for w in detail} == {1}
            assert all(w["shm_segment"] for w in detail)
            # The serving worker's local section names its own pid and
            # segment; the pool section covers every worker.
            assert stats["local"]["pid"] in {w["pid"] for w in detail}


class TestHealthz:
    def test_healthz_lock_free_under_select_load(self, clean_shm):
        with WorkerPool(_make_service(), workers=2) as pool:
            stop = threading.Event()

            def hammer() -> None:
                hammer_client = ServingClient(pool.url, timeout=60.0)
                index = 0
                while not stop.is_set():
                    try:
                        hammer_client.select(
                            ["gen000", f"h{index:04d}"],
                            algorithm="cori",
                            strategy="shrinkage",
                            k=5,
                        )
                    except (ServingError, OSError):
                        pass
                    index += 1

            threads = [
                threading.Thread(target=hammer, daemon=True)
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.2)
                probe = ServingClient(pool.url, timeout=30.0)
                latencies = []
                for _ in range(10):
                    start = time.perf_counter()
                    payload = probe.healthz()
                    latencies.append(time.perf_counter() - start)
                    assert payload["status"] == "ok"
                    assert payload["role"] == "worker"
                    assert payload["shm_segment"]
                # Generous bound (single-core CI containers): a health
                # probe never queues behind scoring or an update lock.
                assert sorted(latencies)[len(latencies) // 2] < 1.0
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
