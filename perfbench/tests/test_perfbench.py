"""The benchmark's own tests: query generation, summary arithmetic, and
that every correctness check rejects a corrupted answer.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import checks
import hostspeed
import stats
from queries import BLOCK, REPEAT_DISTANCE, inprocess_plan, pool_plan


def _words(databases: int = 6, per_database: int = 40) -> dict:
    rng = random.Random(3)
    entries = []
    vocabulary = set()
    for d in range(databases):
        words = [f"w{d:02d}x{i:03d}" for i in range(per_database)]
        vocabulary.update(words)
        entries.append([f"db{d}", [[w, rng.random()] for w in words]])
    return {"databases": entries, "vocabulary": sorted(vocabulary)}


# -- query generation ---------------------------------------------------------------


def test_inprocess_plan_repeats_for_a_seed():
    words = _words()
    assert inprocess_plan(words, 11, 5, 300) == inprocess_plan(words, 11, 5, 300)
    assert inprocess_plan(words, 11, 5, 300) != inprocess_plan(words, 12, 5, 300)


def test_pool_plan_repeats_for_a_seed():
    words = _words()
    mix = (("shrinkage", 0.5), ("plain", 0.3), ("universal", 0.2))
    first = pool_plan(words, 5, 100, 1.1, mix, 400, 3, 4)
    assert first == pool_plan(words, 5, 100, 1.1, mix, 400, 3, 4)
    assert first != pool_plan(words, 6, 100, 1.1, mix, 400, 3, 4)
    entries = first["population"] + first["warmup"]
    assert len(first["population"]) == 100
    assert [sum(e["strategy"] == s for e in entries) for s, _ in mix] == [52, 31, 21]
    # Zipf: the most popular entry is drawn far more often than the median one.
    counts = np.bincount(first["stream"], minlength=100)
    assert counts[0] > 5 * max(np.median(counts), 1)


def test_queries_are_topical_with_exact_shares():
    words = _words()
    lists = [{w for w, _ in entries} for _, entries in words["databases"]]
    vocabulary = set(words["vocabulary"])
    queries = inprocess_plan(words, 2, 0, 3 * BLOCK * 10)["queries"]
    for a in range(3):
        # Every algorithm's block: each size a quarter, one in ten unseen.
        block = queries[a::3][:BLOCK]
        known = [[w for w in q if w in vocabulary] for q in block]
        assert sorted(len(k) for k in known) == sorted(1 + i % 4 for i in range(BLOCK))
        assert sum(len(q) - len(k) for q, k in zip(block, known)) == BLOCK // 10
    for query in queries:
        known = {w for w in query if w in vocabulary}
        assert any(known <= database for database in lists)
        assert all(w.startswith("zzq") for w in set(query) - known)


def test_no_term_set_repeats_within_the_cache_reach():
    queries = inprocess_plan(_words(databases=6, per_database=300), 4, 0, 2400)["queries"]
    last: dict[tuple[str, ...], int] = {}
    for i, query in enumerate(queries):
        key = tuple(sorted(set(query)))
        assert i - last.get(key, -REPEAT_DISTANCE) >= REPEAT_DISTANCE
        last[key] = i
    with pytest.raises(ValueError):
        inprocess_plan(_words(databases=1, per_database=3), 4, 0, 2400)


# -- arithmetic -------------------------------------------------------------------


def test_percentile_on_fixed_latencies():
    values = [float(v) for v in range(1, 11)]
    assert stats.percentile(values, 50.0) == 5.5
    assert stats.percentile(values, 90.0) == pytest.approx(9.1)
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 100.0) == 10.0
    assert stats.percentile([4.0], 90.0) == 4.0
    sample = [random.Random(1).random() for _ in range(97)]
    for q in (10.0, 50.0, 90.0, 99.0):
        assert stats.percentile(sample, q) == pytest.approx(np.percentile(sample, q))


def test_qps_is_selects_per_second_of_select_time():
    assert stats.qps([0.5, 0.5, 1.0]) == 1.5
    assert stats.qps([0.001] * 1000) == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        stats.qps([])


def test_normalize_scales_each_block_by_its_kernel_time():
    ref = hostspeed.REFERENCE_SECONDS
    # Every kernel at twice the reference: the host ran at half speed.
    assert hostspeed.normalize([0.004, 0.002], [0, 1], [2 * ref, 2 * ref]) == [
        pytest.approx(0.002),
        pytest.approx(0.001),
    ]
    # A slow stretch in the middle rescales only the blocks around it.
    kernels = [ref, ref, ref, 3 * ref, 3 * ref, 3 * ref, ref, ref]
    scaled = hostspeed.normalize([0.003] * 8, list(range(8)), kernels)
    assert scaled == [pytest.approx(v) for v in [0.003] * 3 + [0.001] * 3 + [0.003] * 2]
    with pytest.raises(ValueError):
        hostspeed.normalize([0.001], [], [ref])


def test_smoothing_ignores_one_interrupted_kernel():
    assert hostspeed.smoothed([1.0, 1.0, 9.0, 1.0, 1.0]) == [1.0] * 5
    assert hostspeed.smoothed([2.0]) == [2.0]
    assert hostspeed.measure() > 0.0


def test_latency_summary():
    summary = stats.latency_summary([0.001, 0.002, 0.003, 0.004])
    assert summary["p50_ms"] == pytest.approx(2.5)
    assert summary["p90_ms"] == pytest.approx(3.7)
    assert summary["mean_ms"] == pytest.approx(2.5)


# -- correctness checks --------------------------------------------------------------


@pytest.fixture(scope="module")
def served():
    """A tiny plain-strategy service and its summaries."""
    from repro.core.vocab import Vocabulary
    from repro.corpus.hierarchy import default_hierarchy
    from repro.selection.metasearcher import Metasearcher
    from repro.serving.service import SelectionService, ServiceConfig
    from repro.summaries.summary import ContentSummary

    rng = random.Random(9)
    vocab = Vocabulary()
    words = [f"t{i:02d}" for i in range(30)]
    summaries = {}
    for d in range(8):
        chosen = rng.sample(words, 18)
        summaries[f"db{d}"] = ContentSummary(
            float(rng.randint(200, 2000)),
            {w: rng.uniform(0.01, 0.9) for w in chosen},
            vocab=vocab,
        )
    hierarchy = default_hierarchy()
    classifications = {name: (hierarchy.root.name,) for name in summaries}
    metasearcher = Metasearcher(hierarchy, summaries, classifications)
    service = SelectionService(
        metasearcher,
        ServiceConfig(strategies=("plain",), request_timeout_seconds=None, default_k=3),
    )
    return service, summaries


def _answer(served, algorithm, terms=("t01", "t05", "t07")):
    service, _ = served
    return service.select(list(terms), algorithm=algorithm, strategy="plain", k=3)


def _reference(served, answer):
    service, summaries = served
    return checks.serial_reference(
        service.metasearcher.make_scorer, answer["algorithm"], "plain",
        answer["query"], summaries, None,
    )


def _copy(answer):
    return {**answer, "ranking": [dict(e) for e in answer["ranking"]], "selected": list(answer["selected"])}


def test_structure_check_rejects_corrupted_answers(served):
    answer = _answer(served, "cori")
    assert checks.structure_problems(answer, 3, None) == []
    swapped = _copy(answer)
    swapped["ranking"][0], swapped["ranking"][1] = swapped["ranking"][1], swapped["ranking"][0]
    assert checks.structure_problems(swapped, 3, None)
    too_many = _copy(answer)
    too_many["selected"] = [e["name"] for e in too_many["ranking"][:4]]
    assert checks.structure_problems(too_many, 3, None)
    stranger = _copy(answer)
    stranger["selected"][0] = "nowhere"
    assert checks.structure_problems(stranger, 3, None)
    degraded = _copy(answer)
    degraded["degraded"] = True
    assert checks.structure_problems(degraded, 3, None)
    assert checks.structure_problems(answer, 3, 2)


@pytest.mark.parametrize("algorithm", ["bgloss", "cori", "lm"])
def test_reference_check_rejects_one_ulp(served, algorithm):
    answer = _answer(served, algorithm)
    reference = _reference(served, answer)
    assert checks.reference_problems(answer, reference, 3) == []
    nudged = _copy(answer)
    top = nudged["ranking"][0]
    top["score"] = math.nextafter(top["score"], math.inf)
    assert checks.reference_problems(nudged, reference, 3)
    reselected = _copy(answer)
    reselected["selected"] = reselected["selected"][::-1]
    assert checks.reference_problems(reselected, reference, 3)


@pytest.mark.parametrize("algorithm", ["bgloss", "cori", "lm"])
def test_formula_check_rejects_a_wrong_score(served, algorithm):
    _, summaries = served
    formulas = checks.Formulas(summaries)
    for terms in (("t01", "t05", "t07"), ("t02",), ("t03", "zz-unseen")):
        answer = _answer(served, algorithm, terms)
        scores = formulas.scores(algorithm, answer["query"])
        assert checks.formula_problems(answer, scores, 1e-9) == []
        wrong = _copy(answer)
        wrong["ranking"][-1]["score"] *= 1.0 + 1e-6
        if wrong["ranking"][-1]["score"] != 0.0:
            assert checks.formula_problems(wrong, scores, 1e-9)
