"""A preload reads only what selection reads (DESIGN.md §5c).

On a warm store ``harness.get_cell`` builds a cell from its ``summaries``
and ``shrunk`` artifacts and the default hierarchy: the document testbed
and the exact summaries load only when something reads them. A
``resample`` reads the testbed once, in the process that receives it, and
is journaled as the ``replace`` it amounts to, so replaying the journal
never needs documents.
"""

import json

import pytest

from repro.core.vocab import Vocabulary
from repro.evaluation import harness
from repro.evaluation import store as store_mod
from repro.evaluation.instrument import get_instrumentation
from repro.selection.metasearcher import Metasearcher
from repro.serving.lifecycle import (
    rehome_summary,
    resample_database,
    same_summary,
    summary_payload,
    verify_against_rebuild,
)
from repro.serving.service import SelectionService, ServiceConfig
from repro.summaries.io import summary_from_dict

CELL = ("trec4", "qbs", False, "small")
ALGORITHMS = ("bgloss", "cori", "lm")
STRATEGIES = ("plain", "shrinkage", "universal")


def _config(prune: bool = False) -> ServiceConfig:
    return ServiceConfig(
        dataset="trec4",
        scale="small",
        request_timeout_seconds=None,
        default_k=4,
        prune=prune,
    )


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """A store warmed with every artifact of the trec4/qbs/small cell."""
    root = tmp_path_factory.mktemp("small-store")
    saved = [dict(cache) for cache in harness.memory_caches()]
    config = harness.get_config()
    saved_store, saved_jobs = config.store, config.jobs
    try:
        harness.clear_caches()
        harness.configure(cache_dir=root, jobs=1)
        harness.ensure_shrunk(harness.get_cell(*CELL))
    finally:
        harness.clear_caches()
        for cache, contents in zip(harness.memory_caches(), saved):
            cache.update(contents)
        config.store = saved_store
        config.jobs = saved_jobs
    return root


@pytest.fixture
def warm(small_store, isolated_harness):
    """A fresh interpreter's view: empty caches, the warm store configured."""
    harness.clear_caches()
    harness.configure(cache_dir=small_store, jobs=1)
    return small_store


def _counters() -> dict:
    return get_instrumentation().snapshot()["counters"]


def _eager_service(prune: bool) -> SelectionService:
    """The preload as it used to be: testbed and exact summaries first,
    then a metasearcher over the testbed's own hierarchy."""
    store = harness.get_config().store
    testbed = harness.get_testbed("trec4", "small")
    harness.get_exact_summaries("trec4", "small")
    summaries, classifications = store.load_artifact(
        "summaries",
        store_mod.fingerprint(harness._summaries_config(*CELL)),
        store_mod.summaries_from_payload,
    )
    shrunk = store.load_artifact(
        "shrunk",
        store_mod.fingerprint(harness._shrunk_config(*CELL)),
        store_mod.shrunk_from_payload,
    )
    metasearcher = Metasearcher(testbed.hierarchy, summaries, classifications)
    metasearcher.set_shrunk_summaries(shrunk)
    service = SelectionService(metasearcher, _config(prune))
    service.warmup()
    return service


def _queries(metasearcher: Metasearcher) -> list[list[str]]:
    words = list(metasearcher.builder.vocab.words_of(metasearcher.builder.global_ids()))
    step = max(len(words) // 7, 1)
    picks = words[::step]
    return [
        [picks[0]],
        [picks[1], picks[2]],
        [picks[3], picks[4], picks[5]],
        [picks[6], "preload-oov-term"],
    ]


def _answer(response: dict) -> tuple:
    return (
        response["selected"],
        [(e["name"], e["score"], e["selected"]) for e in response["ranking"]],
        response["shrinkage_applications"],
    )


class TestLeanPreload:
    def test_preload_loads_no_testbed(self, warm):
        service = SelectionService.from_harness(_config())
        assert harness._TESTBEDS == {}
        assert harness._EXACT == {}
        counters = _counters()
        assert not any(name.endswith(".testbed") for name in counters), counters
        assert counters["cache.hit.summaries"] == 1
        assert counters["cache.hit.shrunk"] == 1
        assert service.select(["cancer"], strategy="shrinkage")["ranking"]
        assert harness._TESTBEDS == {}

    def test_answers_match_an_eager_cell_bit_for_bit(self, warm):
        lean = {
            prune: SelectionService.from_harness(_config(prune))
            for prune in (False, True)
        }
        assert harness._TESTBEDS == {}
        eager = {prune: _eager_service(prune) for prune in (False, True)}
        assert eager[False].metasearcher is not lean[False].metasearcher
        checked = 0
        for query in _queries(lean[False].metasearcher):
            for algorithm in ALGORITHMS:
                for strategy in STRATEGIES:
                    for prune in (False, True):
                        ours = lean[prune].select(
                            query, algorithm=algorithm, strategy=strategy
                        )
                        theirs = eager[prune].select(
                            query, algorithm=algorithm, strategy=strategy
                        )
                        assert _answer(ours) == _answer(theirs), (
                            query, algorithm, strategy, prune
                        )
                        checked += 1
        assert checked == 4 * 3 * 3 * 2

    def test_testbed_and_exact_summaries_load_on_first_access(self, warm):
        cell = harness.get_cell(*CELL)
        assert harness._TESTBEDS == {}
        testbed = cell.testbed
        assert testbed is harness.get_testbed("trec4", "small")
        assert _counters()["cache.hit.testbed"] == 1
        assert [db.name for db in testbed.databases] == list(cell.summaries)
        exact = cell.exact_summaries
        assert exact is harness.get_exact_summaries("trec4", "small")
        for db in testbed.databases:
            assert exact[db.name].size == db.size


class TestResampleJournal:
    def test_resample_is_journaled_as_a_replace(self, warm):
        service = SelectionService.from_harness(_config())
        name = list(service.metasearcher.sampled_summaries)[2]
        result = service.apply_update([{"op": "resample", "name": name, "seed": 3}])
        assert result["touched_databases"] == [name]
        (op,) = service.journal
        assert op["op"] == "replace" and op["name"] == name
        # The receiving process drew the sample, from the testbed.
        assert harness._TESTBEDS
        fresh = resample_database(*CELL, name, 3)
        vocab = Vocabulary()
        assert same_summary(
            rehome_summary(summary_from_dict(op["summary"]), vocab),
            rehome_summary(fresh, vocab),
        )

    def test_journal_replays_without_harness_context(self, warm):
        service = SelectionService.from_harness(_config())
        name = list(service.metasearcher.sampled_summaries)[4]
        service.apply_update([{"op": "resample", "name": name, "seed": 5}])
        # As a pool worker or a restart gets it: JSON, no documents.
        journal = json.loads(json.dumps(service.journal))

        harness.clear_caches()
        harness.configure(cache_dir=warm, jobs=1)
        replay = SelectionService(harness.get_cell(*CELL).metasearcher, _config())
        replay.apply_update(journal)
        assert harness._TESTBEDS == {}
        report = verify_against_rebuild(replay.metasearcher)
        assert report["verified"], report["mismatches"]
        assert summary_payload(
            replay.metasearcher.sampled_summaries[name]
        ) == summary_payload(service.metasearcher.sampled_summaries[name])
        for query in _queries(service.metasearcher):
            for algorithm in ALGORITHMS:
                for strategy in STRATEGIES:
                    assert _answer(
                        replay.select(query, algorithm=algorithm, strategy=strategy)
                    ) == _answer(
                        service.select(query, algorithm=algorithm, strategy=strategy)
                    ), (query, algorithm, strategy)


class TestUpdatesLeaveTheStore:
    def test_real_remove_writes_no_artifact(self, warm):
        service = SelectionService.from_harness(_config())
        store = store_mod.ArtifactStore(warm)
        before = store.entries()
        name = list(service.metasearcher.sampled_summaries)[2]
        result = service.apply_update([{"op": "remove", "name": name}])
        # A real update recomputes R(D) in memory; nothing reaches disk.
        assert result["em_recomputed"] > 0
        assert store.entries() == before
