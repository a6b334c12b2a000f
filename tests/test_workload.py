"""Traffic realism: Zipf workloads, epoch-keyed caching, admission control.

The contract under test (DESIGN.md §5j):

* :class:`~repro.serving.loadgen.WorkloadSpec` generates seeded
  Zipf-skewed query popularity, burst/ramp arrival schedules, and mixed
  query/update streams — deterministically.
* The epoch-keyed response cache survives a hot swap whole when the
  update left the cell unchanged and not at all otherwise, and every
  answer, retained or fresh, is bitwise the serial ranking (the
  shrinkage paper's bit-identity bar applied to serving).
* Admission control sheds excess load with
  :class:`~repro.serving.admission.ServiceOverloaded` (HTTP 429 +
  ``Retry-After``) *before* the degradation deadline, and no request is
  left unanswered.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evaluation.instrument import get_instrumentation
from repro.selection import oracle
from repro.selection.metasearcher import Metasearcher
from repro.serving.admission import AdmissionController, ServiceOverloaded
from repro.serving.loadgen import (
    WorkloadSpec,
    generate_queries,
    parse_workload,
    run_load,
)
from repro.serving.server import make_server
from repro.serving.service import (
    SelectionService,
    ServiceConfig,
    canonical_terms,
    normalize_query,
)
from repro.serving.lifecycle import summary_payload
from tests.test_columnar_equivalence import _synthetic_cell
from tests.test_lifecycle import _fresh_summary


def _make_service(**config_kwargs) -> SelectionService:
    hierarchy, summaries, classifications = _synthetic_cell(shared_vocab=True)
    metasearcher = Metasearcher(hierarchy, summaries, classifications)
    defaults = dict(
        scale="synthetic", request_timeout_seconds=None, default_k=5
    )
    defaults.update(config_kwargs)
    service = SelectionService(metasearcher, ServiceConfig(**defaults))
    service.warmup()
    return service


def _semantic(response: dict) -> tuple:
    """The bit-comparable payload of a response (provenance fields aside)."""
    return (
        list(response["selected"]),
        [
            (entry["name"], entry["score"], entry["selected"])
            for entry in response["ranking"]
        ],
    )


def _sweep(service: SelectionService, queries, algorithm: str, strategy: str) -> dict:
    """The oracle's verdict on the service's answers to ``queries``' distinct
    canonical forms (cached or freshly scored) against the current cell."""
    distinct = list(
        dict.fromkeys(canonical_terms(normalize_query(q)) for q in queries)
    )

    def select(terms, algorithm, strategy, k):
        return service.select(terms, algorithm=algorithm, strategy=strategy, k=k)

    return oracle.sweep(
        service.metasearcher,
        [select],
        distinct,
        algorithm,
        strategy,
        service.config.default_k,
        limit=service.config.ranking_limit,
    )


VOCAB = [f"gen{i:03d}" for i in range(6)]


class TestParseWorkload:
    def test_plain_kinds(self):
        assert parse_workload("distinct").kind == "distinct"
        spec = parse_workload("zipf:1.3")
        assert spec.kind == "zipf"
        assert spec.s == 1.3

    def test_full_grammar(self):
        spec = parse_workload(
            "zipf:1.1,pop=64,arrival=burst,rate=200,burst=20,update=50,seed=7"
        )
        assert spec.population == 64
        assert spec.arrival == "burst"
        assert spec.rate == 200.0
        assert spec.burst == 20
        assert spec.update_every == 50
        assert spec.seed == 7

    def test_option_order_does_not_matter(self):
        # arrival=burst is only valid with a positive rate; naming the
        # arrival before the rate must still parse (the spec is built
        # once, after every option is read).
        spec = parse_workload("zipf:1.1,arrival=burst,rate=100")
        assert spec.arrival == "burst"

    def test_seed_argument_is_default_only(self):
        assert parse_workload("zipf:1.1", seed=3).seed == 3
        assert parse_workload("zipf:1.1,seed=9", seed=3).seed == 9

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "poisson",
            "zipf:nope",
            "zipf:-1",
            "zipf:1.1,bogus=3",
            "zipf:1.1,pop",
            "zipf:1.1,arrival=steady",  # steady needs a rate
            "zipf:1.1,arrival=warp,rate=10",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_workload(text)

    def test_describe_round_trips(self):
        spec = parse_workload("zipf:1.2,pop=32,arrival=steady,rate=50")
        assert parse_workload(spec.describe()) == spec


class TestWorkloadQueries:
    def test_zipf_is_deterministic(self):
        spec = WorkloadSpec(kind="zipf", population=16, seed=4)
        assert spec.queries(VOCAB, 100) == spec.queries(VOCAB, 100)

    def test_zipf_repeats_popular_queries(self):
        spec = WorkloadSpec(kind="zipf", s=1.1, population=32, seed=0)
        stream = spec.queries(VOCAB, 300)
        distinct = {tuple(query) for query in stream}
        # Skew: far fewer distinct queries than requests, and the most
        # popular query dominates any mid-tail one.
        assert len(distinct) < 300
        assert len(distinct) <= 32
        counts: dict = {}
        for query in stream:
            counts[tuple(query)] = counts.get(tuple(query), 0) + 1
        frequencies = sorted(counts.values(), reverse=True)
        assert frequencies[0] >= 5 * frequencies[-1]

    def test_zipf_pool_is_bounded_by_population(self):
        spec = WorkloadSpec(kind="zipf", population=8, seed=1)
        pool = {tuple(q) for q in spec.queries(VOCAB, 500)}
        assert len(pool) <= 8

    def test_distinct_kind_matches_generate_queries(self):
        spec = WorkloadSpec(kind="distinct", seed=5)
        assert spec.queries(VOCAB, 40) == generate_queries(VOCAB, 40, seed=5)


class TestWorkloadSchedules:
    def test_closed_is_none(self):
        assert WorkloadSpec().schedule(10) is None

    def test_steady_spacing(self):
        spec = WorkloadSpec(arrival="steady", rate=100.0)
        offsets = spec.schedule(5)
        assert offsets == [0.0, 0.01, 0.02, 0.03, 0.04]

    def test_burst_groups_arrive_together(self):
        spec = WorkloadSpec(arrival="burst", rate=100.0, burst=3)
        offsets = spec.schedule(7)
        assert offsets[0] == offsets[1] == offsets[2] == 0.0
        assert offsets[3] == offsets[4] == offsets[5] == 0.03
        assert offsets[6] == 0.06

    def test_ramp_accelerates(self):
        spec = WorkloadSpec(arrival="ramp", rate=100.0)
        offsets = spec.schedule(50)
        assert offsets == sorted(offsets)
        gaps = np.diff(offsets)
        # Instantaneous rate climbs, so inter-arrival gaps shrink.
        assert gaps[0] > gaps[-1]

    def test_update_indices(self):
        spec = WorkloadSpec(update_every=50)
        assert spec.update_indices(160) == {50, 100, 150}
        assert WorkloadSpec().update_indices(160) == set()


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0
        self.now += seconds


class TestRunLoadScheduleAndHooks:
    def test_schedule_paces_requests(self):
        clock = _FakeClock()

        def select(terms, algorithm, strategy, k):
            return {"selected": [], "ranking": []}

        summary = run_load(
            select,
            [["a"], ["b"], ["c"]],
            schedule=[0.0, 0.5, 1.0],
            clock=clock,
            sleep=clock.sleep,
        )
        assert summary["requests"] == 3
        # The run cannot finish before the last scheduled arrival.
        assert summary["wall_seconds"] >= 1.0

    def test_schedule_length_validated(self):
        with pytest.raises(ValueError, match="schedule"):
            run_load(
                lambda *a: {},
                [["a"], ["b"]],
                schedule=[0.0],
            )

    def test_on_request_fires_once_per_index(self):
        seen: list[int] = []

        def select(terms, algorithm, strategy, k):
            return {"selected": [], "ranking": []}

        run_load(
            select,
            [["q"] for _ in range(20)],
            concurrency=4,
            on_request=seen.append,
        )
        assert sorted(seen) == list(range(20))

    def test_shed_counted_separately_and_never_aborts(self):
        def select(terms, algorithm, strategy, k):
            if terms[0] == "shed":
                raise ServiceOverloaded(1.0, "queue_full")
            return {"selected": [], "ranking": []}

        summary = run_load(
            select, [["ok"], ["shed"], ["ok"], ["shed"]], raise_errors=True
        )
        assert summary["requests"] == 2
        assert summary["shed"] == 2
        assert summary["errors"] == 0
        assert summary["issued"] == 4
        assert summary["shed_fraction"] == pytest.approx(0.5)

    def test_http_429_counts_as_shed(self):
        error = RuntimeError("too many")
        error.status = 429

        def select(terms, algorithm, strategy, k):
            raise error

        summary = run_load(select, [["a"], ["b"]])
        assert summary["shed"] == 2
        assert summary["errors"] == 0

    def test_all_cached_instant_completions_report_finite_qps(self):
        # Satellite: with a coarse (or fake) clock every completion can
        # land on the same reading; the steady-state estimator then has
        # a zero interval and must fall back to whole-run wall clock.
        clock = _FakeClock()

        def select(terms, algorithm, strategy, k):
            return {"selected": [], "ranking": [], "cached": True}

        clock.now = 10.0
        summary = run_load(
            select,
            [["a"], ["b"], ["c"]],
            clock=clock,
            sleep=clock.sleep,
        )
        # All three completions at t=10.0 exactly: qps must not be 0
        # (or a division error) — wall is also 0 here, so qps is 0.0
        # only because nothing measurable elapsed at all.
        assert summary["requests"] == 3
        assert summary["qps"] == 0.0
        assert summary["measured_seconds"] == summary["wall_seconds"]

    def test_all_cached_same_tick_with_nonzero_wall(self):
        clock = _FakeClock()
        issued = [0]

        def select(terms, algorithm, strategy, k):
            if issued[0] == 0:
                # Only the inter-request gap advances the clock; the
                # completions themselves are instantaneous.
                clock.now += 2.0
            issued[0] += 1
            return {"selected": [], "ranking": [], "cached": True}

        summary = run_load(
            select,
            [["a"], ["b"], ["c"]],
            clock=clock,
            sleep=clock.sleep,
        )
        # Completions: first at t=2, second and third also at t=2 —
        # wait, the first request advanced the clock before returning,
        # so all three completions read t=2.0 and measured == 0. The
        # fallback divides by the 2s wall instead.
        assert summary["qps"] == pytest.approx(3 / 2.0)
        assert summary["measured_seconds"] == pytest.approx(2.0)


class TestResponseAliasingRegression:
    def test_mutating_a_response_does_not_poison_the_cache(self):
        service = _make_service(strategies=("plain",))
        first = service.select(["gen000", "gen001"], strategy="plain")
        pristine = _semantic(first)
        # A caller trashes every mutable field of its response copy.
        first["selected"].append("intruder")
        first["ranking"][0]["score"] = -1.0
        first["ranking"][0]["name"] = "intruder"
        first["query"].append("intruder")

        second = service.select(["gen000", "gen001"], strategy="plain")
        assert second["cached"] is True
        assert _semantic(second) == pristine

        # And mutating the *cached* response must not leak back either.
        second["ranking"][0]["score"] = -2.0
        third = service.select(["gen000", "gen001"], strategy="plain")
        assert _semantic(third) == pristine


class TestCacheKeyNormalization:
    def test_term_order_and_duplicates_share_one_entry(self):
        service = _make_service(strategies=("plain",))
        base = service.select(["gen002", "gen000"], strategy="plain")
        variants = [
            ["gen000", "gen002"],
            ["gen002", "gen000", "gen002"],
            "gen000 gen002",
            "GEN002 gen000",
        ]
        for query in variants:
            response = service.select(query, strategy="plain")
            assert response["cached"] is True, query
            assert _semantic(response) == _semantic(base)
            assert response["query"] == base["query"]
        # One entry serves every ordering: the cache grew by exactly one.
        assert service.cache_sizes()["responses"] == 1

    def test_canonical_scoring_is_bit_identical_to_raw_reference(self):
        # The served score for any term order equals scoring the
        # canonical (sorted, deduplicated) term list directly — the
        # IEEE-754 fold order is pinned by the service, not the client.
        service = _make_service(strategies=("plain",))
        response = service.select(["gen003", "gen001", "gen003"], strategy="plain")
        canonical = list(
            canonical_terms(normalize_query(["gen003", "gen001", "gen003"]))
        )
        outcome = service.metasearcher.select(
            canonical, algorithm="cori", strategy="plain", k=5
        )
        assert list(response["selected"]) == list(outcome.names)
        expected = sorted(
            outcome.scores.items(), key=lambda item: (-item[1], item[0])
        )
        assert [
            (entry["name"], entry["score"]) for entry in response["ranking"]
        ] == expected


class TestCacheSizesPinned:
    def test_cache_sizes_reads_one_snapshot(self):
        service = _make_service(strategies=("plain",))
        service.select(["gen000"], strategy="plain")
        old = service.snapshot
        assert service.cache_sizes(old)["responses"] == 1

        victim = list(service.metasearcher.sampled_summaries)[0]
        service.apply_update([{"op": "remove", "name": victim}])

        # The pinned reference still reports the *old* snapshot's cache,
        # however the published one has moved on.
        assert service.cache_sizes(old)["responses"] == 1
        assert service.cache_sizes() == service.cache_sizes(service.snapshot)

    def test_stats_snapshot_sizes_match_its_own_epoch(self):
        service = _make_service(strategies=("plain",))
        service.select(["gen000"], strategy="plain")
        stats = service.stats_snapshot()
        assert stats["cache_sizes"]["responses"] == 1
        assert stats["epoch"] == service.snapshot.version


class TestEpochKeyedRetention:
    def test_cancelling_update_retains_bgloss_plain_entries(self):
        service = _make_service(strategies=("plain", "shrinkage"))
        bg = service.select(
            ["gen000", "gen001"], algorithm="bgloss", strategy="plain"
        )
        service.select(["gen000"], algorithm="cori", strategy="plain")
        service.select(["gen000"], algorithm="cori", strategy="shrinkage")
        assert len(service.snapshot.cache) == 3
        keys = [key for key, _ in service.snapshot.cache.items()]

        victim = list(service.metasearcher.sampled_summaries)[-1]
        result = service.apply_update(
            [
                {"op": "remove", "name": victim},
                {"op": "restore", "name": victim},
            ]
        )
        # The cancelling pair leaves the cell as it was — the same
        # summary and aggregate objects, every R(D) reused — so every
        # entry survives, collection-statistic (CORI) and shrinkage ones
        # included.
        assert result["unchanged"] is True
        assert result["changed_paths"] == 0
        assert result["em_recomputed"] == 0
        assert result["touched_databases"] == []
        assert result["response_cache_retained"] == 3
        assert [key for key, _ in service.snapshot.cache.items()] == keys

        again = service.select(
            ["gen001", "gen000"], algorithm="bgloss", strategy="plain"
        )
        assert again["cached"] is True
        # Retained entries keep their original provenance.
        assert again["snapshot_version"] == bg["snapshot_version"]
        assert _semantic(again) == _semantic(bg)

    def test_retained_entries_are_bit_identical_to_cold_service(self):
        service = _make_service(strategies=("plain",))
        spec = WorkloadSpec(kind="zipf", s=1.1, population=12, seed=2)
        stream = spec.queries(VOCAB, 60)
        for query in stream[:30]:
            service.select(query, algorithm="bgloss", strategy="plain")
        victim = list(service.metasearcher.sampled_summaries)[-1]
        result = service.apply_update(
            [
                {"op": "remove", "name": victim},
                {"op": "restore", "name": victim},
            ]
        )
        assert result["response_cache_retained"] > 0
        for query in stream[30:]:
            service.select(query, algorithm="bgloss", strategy="plain")

        # Sweep 1: every served (cached or fresh) response matches the
        # serial ranking of the current cell bit for bit.
        sweep = _sweep(service, stream, "bgloss", "plain")
        assert sweep["wrong"] == 0, sweep
        assert sweep["checked"] == len({
            canonical_terms(normalize_query(q)) for q in stream
        })

        # Sweep 2: against a cold service (empty cache, never swapped)
        # over the same cell — the cancelling update's final state.
        cold = _make_service(strategies=("plain",))
        for query in {tuple(q) for q in stream}:
            warm = service.select(
                list(query), algorithm="bgloss", strategy="plain"
            )
            fresh = cold.select(
                list(query), algorithm="bgloss", strategy="plain"
            )
            assert _semantic(warm) == _semantic(fresh), query

    def test_replace_invalidates_entries_citing_the_touched_database(self):
        service = _make_service(strategies=("plain",))
        service.select(["gen000"], algorithm="bgloss", strategy="plain")
        victim = list(service.metasearcher.sampled_summaries)[0]
        result = service.apply_update(
            [
                {
                    "op": "replace",
                    "name": victim,
                    "summary": summary_payload(_fresh_summary(seed=11)),
                }
            ]
        )
        assert result["touched_databases"] == [victim]
        assert result["unchanged"] is False
        assert result["response_cache_retained"] == 0
        response = service.select(["gen000"], algorithm="bgloss", strategy="plain")
        assert response["cached"] is False
        assert response["snapshot_version"] == service.snapshot.version

    def test_remove_then_restore_does_not_revive_stale_entries(self):
        service = _make_service(strategies=("plain",))
        service.select(["gen000"], algorithm="bgloss", strategy="plain")
        victim = list(service.metasearcher.sampled_summaries)[-1]
        first = service.apply_update([{"op": "remove", "name": victim}])
        assert first["response_cache_retained"] == 0
        second = service.apply_update([{"op": "restore", "name": victim}])
        # Each update changed the cell it started from: nothing may carry
        # over, even though the final cell equals the initial one.
        assert second["response_cache_retained"] == 0
        response = service.select(["gen000"], algorithm="bgloss", strategy="plain")
        assert response["cached"] is False
        sweep = _sweep(service, [["gen000"]], "bgloss", "plain")
        assert sweep["wrong"] == 0, sweep

    def test_pruned_service_never_uses_the_granular_proof(self):
        service = _make_service(strategies=("plain",), prune=True)
        service.select(["gen000"], algorithm="bgloss", strategy="plain")
        service.select(["gen000"], algorithm="lm", strategy="plain")
        victim = list(service.metasearcher.sampled_summaries)[-1]
        result = service.apply_update(
            [
                {"op": "remove", "name": victim},
                {"op": "restore", "name": victim},
            ]
        )
        # A pruned answer's candidate pool depends on every row, which an
        # unchanged cell leaves as it was: a pruned service keeps
        # everything too.
        assert result["unchanged"] is True
        assert result["response_cache_retained"] == 2
        for algorithm in ("bgloss", "lm"):
            again = service.select(["gen000"], algorithm=algorithm, strategy="plain")
            assert again["cached"] is True
            sweep = _sweep(service, [["gen000"]], algorithm, "plain")
            assert sweep["wrong"] == 0, sweep


_PATHS = [
    ["Root", "Health", "Diseases", "Cancer"],
    ["Root", "Computers", "Programming", "Java"],
]
_PROBES = [["gen000", "gen001"], ["cancer000"], ["java002", "zz-oov"]]


def _batch(service: SelectionService, moves) -> list[dict]:
    """Valid ops for random (kind, slot) moves: adds, removes, restores
    of databases removed earlier in the batch, no-op replaces (a
    database's own payload) and real replaces."""
    original = dict(service.metasearcher.sampled_summaries)
    present = set(original)
    removed: set[str] = set()
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
        elif kind == "add" and name not in present and name not in original:
            ops.append({
                "op": "add",
                "name": name,
                "summary": summary_payload(_fresh_summary("java", seed=300 + index)),
                "path": _PATHS[slot % len(_PATHS)],
            })
            present.add(name)
        elif kind == "noop" and name in present and name in original:
            ops.append({
                "op": "replace",
                "name": name,
                "summary": summary_payload(original[name]),
            })
        elif kind == "replace" and name in present:
            ops.append({
                "op": "replace",
                "name": name,
                "summary": summary_payload(_fresh_summary("aids", seed=400 + index)),
            })
    return ops if present else []


ALL_STRATEGIES = ("plain", "shrinkage", "universal")


class TestUnchangedProperty:
    @settings(deadline=None, max_examples=15)
    @given(
        moves=st.lists(
            st.tuples(
                st.sampled_from(["remove", "restore", "add", "noop", "replace"]),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=4,
        ),
        prune=st.booleans(),
        strategies=st.sampled_from([ALL_STRATEGIES, ("plain",)]),
    )
    @example(moves=[("remove", 7), ("restore", 7)], prune=False, strategies=ALL_STRATEGIES)
    @example(moves=[("remove", 3), ("restore", 3)], prune=True, strategies=ALL_STRATEGIES)
    @example(moves=[("noop", 5)], prune=True, strategies=ALL_STRATEGIES)
    @example(
        moves=[("remove", 2), ("noop", 4), ("restore", 2)],
        prune=False,
        strategies=ALL_STRATEGIES,
    )
    @example(moves=[("replace", 1)], prune=False, strategies=ALL_STRATEGIES)
    @example(moves=[("add", 8), ("remove", 8)], prune=True, strategies=ALL_STRATEGIES)
    @example(moves=[("remove", 7), ("restore", 7)], prune=True, strategies=("plain",))
    @example(moves=[("remove", 2)], prune=False, strategies=("plain",))
    @example(moves=[("replace", 1)], prune=True, strategies=("plain",))
    def test_cache_survives_exactly_an_unchanged_cell(self, moves, prune, strategies):
        service = _make_service(prune=prune, strategies=strategies)
        ops = _batch(service, moves)
        if not ops:
            return
        combos = [
            (algorithm, strategy)
            for algorithm in ("bgloss", "cori", "lm")
            for strategy in strategies
        ]
        for algorithm, strategy in combos:
            for query in _PROBES:
                service.select(query, algorithm=algorithm, strategy=strategy)
        before = service.metasearcher
        cached = len(service.snapshot.cache)
        counters = get_instrumentation().counters

        def em_count() -> int:
            return counters.get("em.runs", 0) + counters.get("em.cache_hit", 0)

        em_before = em_count()
        result = service.apply_update(ops)
        # One EM (or digest-cache answer) per regime for each R(D) the
        # update recomputed, and nothing else: a plain-only cell never
        # holds R(D), so its updates run none.
        assert em_count() - em_before == 2 * result["em_recomputed"]
        after = service.metasearcher
        serves_shrunk = strategies != ("plain",)
        assert after.has_shrunk_summaries() is serves_shrunk
        if not serves_shrunk:
            assert (result["em_recomputed"], result["shrunk_reused"]) == (0, 0)
            assert set(after.engine_matrices()) == {"set:plain"}
        # A batch that nets out (remove+restore pairs, no-op replaces, an
        # added database removed again) gives back every database's
        # summary object in the old order: the cell must be unchanged.
        nets_out = list(after.sampled_summaries) == list(
            before.sampled_summaries
        ) and all(
            after.sampled_summaries[name] is summary
            for name, summary in before.sampled_summaries.items()
        )
        same_objects = (
            list(after.sampled_summaries) == list(before.sampled_summaries)
            and all(
                after.sampled_summaries[name] is summary
                and (
                    not serves_shrunk
                    or after.shrunk_summaries[name]
                    is before.shrunk_summaries[name]
                )
                for name, summary in before.sampled_summaries.items()
            )
            and all(
                after.builder._aggregates[path] is aggregate
                for path, aggregate in before.builder._aggregates.items()
            )
        )
        assert result["unchanged"] is same_objects
        assert nets_out is same_objects
        kept = cached if same_objects else 0
        assert result["response_cache_retained"] == kept
        assert len(service.snapshot.cache) == kept
        if same_objects:
            assert result["em_recomputed"] == 0
            assert result["changed_paths"] == 0
        for algorithm, strategy in combos:
            sweep = _sweep(service, _PROBES, algorithm, strategy)
            assert sweep["wrong"] == 0, sweep


class TestAdmissionController:
    def test_admits_up_to_max_inflight(self):
        gate = AdmissionController(max_inflight=2, max_queue=0)
        gate.acquire()
        gate.acquire()
        with pytest.raises(ServiceOverloaded) as excinfo:
            gate.acquire()
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.retry_after_seconds == 1.0
        gate.release()
        gate.acquire()  # a freed slot admits again
        occupancy = gate.occupancy()
        assert occupancy["inflight"] == 2
        assert occupancy["waiting"] == 0

    def test_queue_timeout_sheds_with_reason(self):
        gate = AdmissionController(
            max_inflight=1, max_queue=4, queue_timeout_seconds=0.01
        )
        gate.acquire()
        started = time.monotonic()
        with pytest.raises(ServiceOverloaded) as excinfo:
            gate.acquire()
        assert excinfo.value.reason == "queue_timeout"
        assert time.monotonic() - started < 5.0
        gate.release()

    def test_queued_waiter_gets_the_freed_slot(self):
        gate = AdmissionController(
            max_inflight=1, max_queue=4, queue_timeout_seconds=5.0
        )
        gate.acquire()
        admitted = threading.Event()

        def waiter():
            gate.acquire()
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        while gate.occupancy()["waiting"] == 0:
            time.sleep(0.001)
        gate.release()
        assert admitted.wait(5.0)
        thread.join()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=1, max_queue=-1)


class TestServiceAdmission:
    def test_shed_is_counted_and_answered_before_the_deadline(self):
        service = _make_service(
            strategies=("plain",),
            max_inflight=1,
            admission_queue=0,
            admission_timeout_seconds=0.01,
            request_timeout_seconds=30.0,
        )
        service._admission.acquire()  # saturate the gate
        started = time.monotonic()
        try:
            with pytest.raises(ServiceOverloaded):
                service.select(["gen000"], strategy="plain")
        finally:
            service._admission.release()
        # Shed answers arrive orders of magnitude before the 30s
        # degradation deadline, and count as shed — not errors, not
        # degraded, not requests.
        assert time.monotonic() - started < 5.0
        stats = service.stats.snapshot()
        assert stats["shed"] == 1
        assert stats["errors"] == 0
        assert stats["degraded"] == 0
        assert stats["requests"] == 0

        response = service.select(["gen000"], strategy="plain")
        assert response["degraded"] is False
        assert service.stats.snapshot()["requests"] == 1

    def test_stats_snapshot_reports_admission_occupancy(self):
        service = _make_service(
            strategies=("plain",), max_inflight=3, admission_queue=2
        )
        admission = service.stats_snapshot()["admission"]
        assert admission == {
            "inflight": 0,
            "waiting": 0,
            "max_inflight": 3,
            "max_queue": 2,
        }

    def test_no_request_left_unanswered_under_saturation(self):
        service = _make_service(
            strategies=("plain",),
            max_inflight=1,
            admission_queue=0,
            admission_timeout_seconds=0.001,
        )
        queries = generate_queries(VOCAB, 80, seed=3)
        summary = run_load(
            select=lambda terms, algorithm, strategy, k: service.select(
                terms, algorithm=algorithm, strategy=strategy, k=k
            ),
            queries=queries,
            algorithm="cori",
            strategy="plain",
            k=5,
            concurrency=8,
        )
        assert summary["errors"] == 0
        assert summary["requests"] + summary["shed"] == len(queries)
        assert summary["requests"] == service.stats.snapshot()["requests"]
        assert summary["shed"] == service.stats.snapshot()["shed"]


class TestHttp429:
    def test_shed_request_is_429_with_retry_after(self):
        service = _make_service(
            strategies=("plain",),
            max_inflight=1,
            admission_queue=0,
            admission_timeout_seconds=0.01,
            retry_after_seconds=2.0,
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            body = json.dumps(
                {"query": ["gen000"], "strategy": "plain"}
            ).encode()
            service._admission.acquire()
            try:
                connection = http.client.HTTPConnection(host, port, timeout=10)
                connection.request(
                    "POST",
                    "/select",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 429
                assert response.getheader("Retry-After") == "2"
                assert payload["retry_after_seconds"] == 2.0
                assert "overloaded" in payload["error"]
                connection.close()
            finally:
                service._admission.release()
            # Sheds are not errors: the service is healthy right after.
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request(
                "POST",
                "/select",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            connection.close()
            assert service.stats.snapshot()["errors"] == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join()


@pytest.fixture
def clean_registry():
    from repro.evaluation.instrument import get_instrumentation

    inst = get_instrumentation()
    inst.reset()
    yield inst
    inst.reset()


class TestPoolStatsParity:
    """Satellite: dispatcher /stats totals == loadgen-observed totals."""

    pytestmark = pytest.mark.skipif(
        __import__(
            "repro.serving.workers", fromlist=["fork_available"]
        ).fork_available()
        is False,
        reason="worker pool requires os.fork",
    )

    def test_two_worker_stats_match_skewed_loadgen(self):
        from repro.evaluation.instrument import get_instrumentation
        from repro.serving.client import ServingClient
        from repro.serving.workers import WorkerPool

        get_instrumentation().reset()
        spec = WorkloadSpec(kind="zipf", s=1.1, population=16, seed=6)
        queries = spec.queries(VOCAB, 80)
        with WorkerPool(_make_service(), workers=2) as pool:
            client = ServingClient(pool.url, timeout=60.0)
            summary = run_load(
                select=lambda terms, algorithm, strategy, k: client.select(
                    terms, algorithm=algorithm, strategy=strategy, k=k
                ),
                queries=queries,
                algorithm="cori",
                strategy="plain",
                k=5,
                concurrency=4,
            )
            assert summary["errors"] == 0
            # A skewed stream over per-worker caches: every repeat after
            # a worker's first sighting is a hit, so hits are plentiful
            # even though the two caches warmed independently.
            assert summary["cache_hits"] > 0

            client.metrics()  # force a fresh telemetry poll
            pool_section = client.stats()["pool"]
            assert pool_section["workers"] == 2
            assert pool_section["requests"] == summary["requests"] == 80
            assert pool_section["cache_hits"] == summary["cache_hits"]
            assert pool_section["degraded"] == summary["degraded"] == 0
            assert pool_section["shed"] == summary["shed"] == 0
            detail = pool_section["worker_detail"]
            assert sum(w["requests"] for w in detail) == 80
            assert sum(w["cache_hits"] for w in detail) == summary["cache_hits"]


class TestShedIsNotAnError:
    def test_shed_publishes_its_own_status_series(self, clean_registry):
        service = _make_service(
            strategies=("plain",),
            max_inflight=1,
            admission_queue=0,
            admission_timeout_seconds=0.001,
        )
        service._admission.acquire()
        try:
            with pytest.raises(ServiceOverloaded):
                service.select(["gen000"], strategy="plain")
        finally:
            service._admission.release()
        service.select(["gen000"], strategy="plain")
        counters = clean_registry.snapshot()["counters"]
        assert (
            counters["serve.http.requests{endpoint=select,status=shed}"] == 1
        )
        assert (
            counters["serve.http.requests{endpoint=select,status=ok}"] == 1
        )
        assert counters["serve.shed_requests{endpoint=select}"] == 1
        # Deliberate backpressure never lands in the error series.
        assert not any(
            name.startswith("serve.errors") for name in counters
        ), counters
