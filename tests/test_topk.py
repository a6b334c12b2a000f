"""Exactness of the pruned top-k engine vs the full batched scan.

The pruned engine (selection/topk.py) eliminates whole category subtrees
via aggregated group bounds and refines survivors with per-row bounds,
scoring only rows whose bound can still reach the current k-th score.
Because every bound is computed with the same monotone IEEE-754
arithmetic as the scorers' folds (CORI's two-variable T rounding gets an
explicit multiplicative guard), the pruned ranking must equal the full
scan's first k entries **bit for bit** — names, scores, floors, and
selected flags. No tolerance anywhere in this file.

Covered: all three scorers across plain, universal, and adaptive mixed
summary choices; OOV and empty queries; the ``ranked_from_arrays`` k-cut
tie-break; batched hierarchical subtree rankings vs forced-serial; the
closed-form summary-universe builder; and a hypothesis property over
random queries, algorithms, strategies, and k.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.category import CategorySummaryBuilder
from repro.corpus.testbeds import build_summary_universe
from repro.evaluation import harness
from repro.selection.base import rank_databases
from repro.selection.batch import GroupIndex, group_labels, ranked_from_arrays
from repro.selection.hierarchical import HierarchicalSelector
from repro.selection.metasearcher import Metasearcher
from tests.test_batch_equivalence import lookup_oracle
from tests.test_columnar_equivalence import _synthetic_cell

ALGORITHMS = ("bgloss", "cori", "lm")
STRATEGIES = ("plain", "universal", "shrinkage")

#: Queries mixing in-vocabulary, out-of-vocabulary, and boundary shapes.
QUERIES = [
    [],
    ["gen000"],
    ["gen001", "gen005", "cancer003"],
    ["java000", "databases004", "gen010", "gen011"],
    ["nosuchword"],
    ["gen002", "totally-oov", "aids001"],
    ["gen000", "gen000", "gen003"],
]


@pytest.fixture(scope="module")
def cell():
    return _synthetic_cell(shared_vocab=True)


@pytest.fixture(scope="module")
def searcher(cell):
    hierarchy, summaries, classifications = cell
    return Metasearcher(hierarchy, summaries, classifications)


def plain_matrix(searcher):
    searcher.ensure_engines({"set:plain"})
    return searcher.engine_matrices()["set:plain"]


class SerialHierarchicalSelector(HierarchicalSelector):
    """The hierarchical descent with every database ranking serial."""

    def _rank_databases(self, names, query_terms, k):
        ranked = rank_databases(
            self.scorer, query_terms, {name: self.summaries[name] for name in names}
        )
        return [entry.name for entry in ranked if entry.selected][:k]


def assert_pruned_matches_full(pruned, full, context=""):
    __tracebackhide__ = True
    assert pruned.names == full.names, context
    # The pruned outcome carries only the surviving pool's scores; each
    # must be bitwise equal to the full scan's score for that database.
    assert set(pruned.scores) <= set(full.scores), context
    for name, score in pruned.scores.items():
        assert score == full.scores[name], (
            f"{context}: {name} pruned {score!r} != full {full.scores[name]!r}"
        )


class TestPrunedBitIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_select_identical(self, searcher, algorithm, strategy):
        for query in QUERIES:
            full = searcher.select(
                query, algorithm=algorithm, strategy=strategy, k=3
            )
            pruned = searcher.select(
                query, algorithm=algorithm, strategy=strategy, k=3, prune=True
            )
            assert_pruned_matches_full(
                pruned, full, f"{algorithm}/{strategy} {query}"
            )

    def test_prune_engages_and_counts_candidates(self, searcher):
        outcome = searcher.select(
            ["gen000", "gen001"], algorithm="cori", strategy="plain", k=3,
            prune=True,
        )
        n = len(searcher.sampled_summaries)
        assert outcome.candidates_scored is not None
        assert 0 < outcome.candidates_scored <= n

    def test_k_covering_set_falls_back_to_full_scan(self, searcher):
        outcome = searcher.select(
            ["gen000"], algorithm="cori", strategy="plain", k=100, prune=True
        )
        assert outcome.candidates_scored is None

    def test_oov_only_query_scores_nothing(self, searcher):
        full = searcher.select(
            ["zzz-oov"], algorithm="lm", strategy="plain", k=3
        )
        pruned = searcher.select(
            ["zzz-oov"], algorithm="lm", strategy="plain", k=3, prune=True
        )
        assert_pruned_matches_full(pruned, full, "oov-only")
        # Every group is eliminated up front: the floor fillers are never
        # exactly scored, so the candidate count is zero.
        assert pruned.candidates_scored == 0
        assert pruned.names == []


class TestRankedFromArraysK:
    def test_k_cut_mid_tie_matches_full_sort(self):
        # db-b/db-c/db-e tie at 0.5; a k=2 cut lands mid-tie and must
        # resolve by name exactly as the full sort does.
        names = ["db-e", "db-a", "db-c", "db-b", "db-d", "db-f"]
        scores = np.array([0.5, 1.0, 0.5, 0.5, 0.25, 0.0])
        floors = np.zeros(len(names))
        full = ranked_from_arrays(names, scores, floors)
        for k in range(0, len(names) + 2):
            cut = ranked_from_arrays(names, scores, floors, k=k)
            expect = full[:k]
            assert [(e.name, e.score, e.selected) for e in cut] == [
                (e.name, e.score, e.selected) for e in expect
            ], f"k={k}"

    def test_floor_ties_not_selected(self):
        names = ["a", "b", "c"]
        scores = np.array([2.0, 1.0, 1.0])
        floors = np.array([1.0, 1.0, 1.0])
        cut = ranked_from_arrays(names, scores, floors, k=2)
        assert [(e.name, e.selected) for e in cut] == [
            ("a", True), ("b", False)
        ]


class TestGroupIndex:
    def test_colmax_matches_dense_maxima(self, searcher):
        matrix = plain_matrix(searcher)
        index = matrix.groups
        assert index.labels == tuple(
            sorted(set(group_labels(matrix.names, searcher.classifications)))
        )
        assert len(index) >= 2  # the synthetic cell spans several leaves
        width = len(matrix.vocab)
        for regime in ("df", "tf"):
            dense = lookup_oracle(matrix, np.arange(width), regime)
            colmax = index.colmax(regime)
            for g, rows in enumerate(index.rows):
                np.testing.assert_array_equal(
                    colmax[g], dense[rows].max(axis=0)
                )

    def test_invalid_ids_bounded_by_defaults(self, searcher):
        index = plain_matrix(searcher).groups
        out = index.colmax_at(np.array([-1]), "df")
        np.testing.assert_array_equal(out[:, 0], index.defaults_max("df"))

    def test_label_count_mismatch_rejected(self, searcher):
        matrix = plain_matrix(searcher)
        with pytest.raises(ValueError):
            GroupIndex(matrix, [("Root",)])


class TestHierarchicalBatched:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_subtree_engines_bit_identical_to_serial(self, cell, algorithm):
        hierarchy, summaries, classifications = cell
        batched = Metasearcher(hierarchy, summaries, classifications)
        serial = SerialHierarchicalSelector(
            batched.make_scorer(algorithm),
            CategorySummaryBuilder(hierarchy, summaries, classifications),
            summaries,
        )
        for query in QUERIES:
            for k in (1, 3, 8):
                outcome = batched.select(
                    query, algorithm=algorithm, strategy="hierarchical", k=k
                )
                assert outcome.names == serial.select(query, k), (
                    f"{algorithm} {query} k={k}"
                )

    def test_dict_vocab_subtrees_match_serial(self):
        # Summaries on their own vocabularies are re-homed onto the
        # builder's, so their subtrees stack like any other.
        hierarchy, summaries, classifications = _synthetic_cell(
            shared_vocab=False
        )
        own_vocab = Metasearcher(hierarchy, summaries, classifications)
        serial = SerialHierarchicalSelector(
            own_vocab.make_scorer("cori"),
            CategorySummaryBuilder(hierarchy, summaries, classifications),
            summaries,
        )
        query = ["gen000", "gen004"]
        outcome = own_vocab.select(
            query, algorithm="cori", strategy="hierarchical", k=4
        )
        assert outcome.names == serial.select(query, 4)
        assert len(plain_matrix(own_vocab)) == len(summaries)


class TestSummaryUniverse:
    CONFIG = harness.SCALES["small"].corpus_config

    def _build(self, n=40, seed=7):
        return build_summary_universe(
            name="uni", num_databases=n, seed=seed, config=self.CONFIG
        )

    def test_deterministic(self):
        _, first, _ = self._build()
        _, second, _ = self._build()
        assert list(first) == list(second)
        for name in first:
            a_ids, a_df = first[name].regime_arrays("df")
            b_ids, b_df = second[name].regime_arrays("df")
            np.testing.assert_array_equal(a_ids, b_ids)
            np.testing.assert_array_equal(a_df, b_df)

    def test_seed_changes_universe(self):
        _, first, _ = self._build(seed=7)
        _, second, _ = self._build(seed=8)
        assert any(
            first[name].size != second[name].size for name in first
        )

    def test_shape_and_names(self):
        testbed, summaries, classifications = self._build()
        assert len(summaries) == 40
        assert sorted(summaries) == list(summaries)
        vocab = next(iter(summaries.values())).vocab
        for name, summary in summaries.items():
            assert summary.vocab is vocab
            assert summary.sample_size == 0
            assert classifications[name]
        sizes = [summary.size for summary in summaries.values()]
        assert min(sizes) >= 10
        assert testbed.databases == []

    def test_pruned_bit_identity_on_universe(self):
        testbed, summaries, classifications = self._build(n=120)
        searcher = Metasearcher(
            testbed.hierarchy, summaries, classifications
        )
        vocab = next(iter(summaries.values())).vocab
        # Words with support in at least one database: a term absent from
        # every summary zeroes all bGlOSS bounds down to the floor, which
        # is exact but prunes nothing.
        ids, _ = next(iter(summaries.values())).regime_arrays("df")
        supported = list(vocab.words_of(ids))
        queries = [
            [supported[13]],
            [supported[100], supported[2000]],
            [supported[-1], supported[len(supported) // 2]],
        ]
        for algorithm in ALGORITHMS:
            for query in queries:
                full = searcher.select(
                    query, algorithm=algorithm, strategy="plain", k=10
                )
                pruned = searcher.select(
                    query, algorithm=algorithm, strategy="plain", k=10,
                    prune=True,
                )
                assert_pruned_matches_full(
                    pruned, full, f"universe {algorithm} {query}"
                )
                assert pruned.candidates_scored is not None
                assert pruned.candidates_scored < len(summaries)
        # Mixed supported + OOV terms must stay bit-identical. The unseen
        # word zeroes every bGlOSS and LM bound down to the floor, so those
        # rows join the known-floor pool without being scored at all.
        query = [supported[7], "oov-term"]
        for algorithm in ALGORITHMS:
            full = searcher.select(
                query, algorithm=algorithm, strategy="plain", k=10
            )
            pruned = searcher.select(
                query, algorithm=algorithm, strategy="plain", k=10,
                prune=True,
            )
            assert_pruned_matches_full(
                pruned, full, f"universe {algorithm} {query}"
            )
            if algorithm in ("bgloss", "lm"):
                assert pruned.candidates_scored == 0, algorithm


class TestHarnessUniverse:
    def test_universe_size_parsing(self):
        assert harness.universe_size("universe-12") == 12
        assert harness.universe_size("universe-100000") == 100000
        assert harness.universe_size("trec4") is None
        assert harness.universe_size("universe-") is None
        assert harness.universe_size("universe-0") is None

    def test_get_cell_builds_universe(self, isolated_harness):
        harness.clear_caches()
        cell = harness.get_cell("universe-30", "qbs", False, "small")
        assert len(cell.metasearcher.sampled_summaries) == 30
        assert cell.exact_summaries == {}
        outcome = cell.metasearcher.select(
            ["warmup"], algorithm="cori", strategy="plain", k=5, prune=True
        )
        assert outcome.names == []


class TestRandomQueriesProperty:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_pruned_identical(self, searcher, data):
        pool = next(
            iter(searcher.sampled_summaries.values())
        ).vocab.to_list()
        term = st.one_of(
            st.sampled_from(pool),
            st.text(alphabet="abcxyz-", min_size=1, max_size=8),  # mostly OOV
        )
        query = data.draw(st.lists(term, min_size=0, max_size=5))
        algorithm = data.draw(st.sampled_from(ALGORITHMS))
        strategy = data.draw(st.sampled_from(STRATEGIES))
        k = data.draw(st.integers(min_value=1, max_value=8))
        full = searcher.select(
            query, algorithm=algorithm, strategy=strategy, k=k
        )
        pruned = searcher.select(
            query, algorithm=algorithm, strategy=strategy, k=k, prune=True
        )
        assert_pruned_matches_full(
            pruned, full, f"{algorithm}/{strategy} k={k} {query}"
        )
