"""Bit-identity of the batched selection engine vs the serial path.

The batched engine (selection/batch.py) stacks a summary set's columnar
arrays into score matrices and vectorizes across the *database* axis
while keeping the per-word fold order of the serial scorers.  Because
elementwise IEEE-754 arithmetic does not depend on array shape, every
score, floor, and selected flag must equal the serial
``rank_databases`` output **bit for bit** — no tolerance anywhere in
this file.  The strict ``score > floor`` selection rule depends on that.

Covered: all three scorers (bGlOSS, CORI, LM) across plain sampled,
universal shrunk, and adaptive mixed summary choices; empty queries;
out-of-vocabulary terms; summaries on their own vocabularies; plus a
hypothesis property over random queries. The reference is the serial
oracle (:mod:`repro.selection.oracle`): ``choose_summaries`` +
``rank_databases`` on freshly prepared scorers.
Below the scorers, one oracle checks the matrix's sparse column store:
every gather and bound equals arrays built from each summary's own
``scored_lookup`` (:func:`lookup_oracle`), over random plain and shrunk
sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import choose_summaries
from repro.core.shrinkage import ShrunkSummary
from repro.core.vocab import Vocabulary
from repro.selection.base import rank_databases
from repro.selection.batch import (
    AdaptiveBatchEngine,
    BatchSelectionEngine,
    SummarySetMatrix,
    UnsupportedSummarySet,
    batch_floor_map,
)
from repro.selection import oracle
from repro.selection.metasearcher import Metasearcher
from repro.summaries.summary import ContentSummary
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


def assert_serial(searcher, query, algorithm, strategy, k, prune=False):
    """One select of ``searcher`` passes the serial oracle."""

    def select(terms, algorithm, strategy, k):
        return searcher.select(
            terms, algorithm=algorithm, strategy=strategy, k=k, prune=prune
        )

    report = oracle.sweep(searcher, [select], [query], algorithm, strategy, k)
    assert report["wrong"] == 0, report["examples"]


@pytest.fixture(scope="module")
def searcher(cell):
    hierarchy, summaries, classifications = cell
    return Metasearcher(hierarchy, summaries, classifications)


class TestMetasearcherBitIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_select_identical(self, searcher, algorithm, strategy):
        for query in QUERIES:
            assert_serial(searcher, query, algorithm, strategy, 5)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_adaptive_decisions_identical(self, searcher, algorithm):
        sampled = searcher.sampled_summaries
        for query in QUERIES:
            b = searcher.select(
                query, algorithm=algorithm, strategy="shrinkage", k=5
            )
            decider = searcher.make_scorer(algorithm)
            decider.prepare(sampled)
            _, decisions = choose_summaries(
                decider,
                query,
                dict(sampled),
                dict(searcher.shrunk_summaries),
                searcher.adaptive_config,
            )
            assert b.decisions is not None
            assert b.decisions == decisions


class TestEngineVsRankDatabases:
    @pytest.mark.parametrize("regime", ["plain", "universal"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fixed_set_identical(self, searcher, algorithm, regime):
        summaries = (
            searcher.sampled_summaries
            if regime == "plain"
            else searcher.shrunk_summaries
        )
        scorer = searcher.make_scorer(algorithm)
        scorer.prepare(summaries)
        engine = BatchSelectionEngine(scorer, SummarySetMatrix(summaries))
        for query in QUERIES:
            serial = rank_databases(scorer, query, summaries, prepare=False)
            fast = engine.rank(query)
            assert [e.name for e in fast] == [e.name for e in serial]
            for fast_entry, serial_entry in zip(fast, serial):
                assert fast_entry.score == serial_entry.score
                assert fast_entry.selected == serial_entry.selected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_floor_map_identical(self, searcher, algorithm):
        summaries = searcher.sampled_summaries
        scorer = searcher.make_scorer(algorithm)
        scorer.prepare(summaries)
        for query in QUERIES:
            floors = batch_floor_map(scorer, query, summaries)
            assert floors is not None
            for name, summary in summaries.items():
                assert floors[name] == scorer.floor_score(query, summary)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mixed_set_identical(self, searcher, algorithm):
        sampled = searcher.sampled_summaries
        shrunk = searcher.shrunk_summaries
        names = sorted(sampled)
        masks = [
            np.zeros(len(names), dtype=bool),
            np.ones(len(names), dtype=bool),
            np.array([i % 2 == 0 for i in range(len(names))]),
            np.array([i % 3 == 0 for i in range(len(names))]),
        ]
        for mask in masks:
            chosen_by_name = dict(zip(names, mask.tolist()))
            # Same insertion order as the metasearcher's serial fallback.
            chosen = {
                name: (shrunk[name] if chosen_by_name[name] else summary)
                for name, summary in sampled.items()
            }
            engine_scorer = searcher.make_scorer(algorithm)
            engine = AdaptiveBatchEngine(
                engine_scorer,
                SummarySetMatrix(sampled),
                SummarySetMatrix(shrunk),
            )
            serial_scorer = searcher.make_scorer(algorithm)
            for query in QUERIES:
                serial = rank_databases(serial_scorer, query, chosen)
                fast = engine.rank(query, mask)
                assert [e.name for e in fast] == [e.name for e in serial]
                for fast_entry, serial_entry in zip(fast, serial):
                    assert fast_entry.score == serial_entry.score
                    assert fast_entry.selected == serial_entry.selected


class TestUnsupportedSets:
    def test_per_summary_vocabs_rejected(self):
        _, summaries, _ = _synthetic_cell(shared_vocab=False)
        with pytest.raises(UnsupportedSummarySet):
            SummarySetMatrix(summaries)

    def test_floor_map_returns_none(self, searcher):
        _, summaries, _ = _synthetic_cell(shared_vocab=False)
        scorer = searcher.make_scorer("cori")
        scorer.prepare(summaries)
        assert batch_floor_map(scorer, ["gen000"], summaries) is None

    def test_metasearcher_rehomes_own_vocab_sets(self):
        # Per-summary vocabularies are re-homed onto the cell vocabulary
        # on install, so every set stacks and no strategy falls back.
        hierarchy, summaries, classifications = _synthetic_cell(
            shared_vocab=False
        )
        own_vocab = Metasearcher(hierarchy, summaries, classifications)
        vocab = own_vocab.builder.vocab
        assert all(
            summary.vocab is vocab
            for summary in own_vocab.sampled_summaries.values()
        )
        for algorithm in ALGORITHMS:
            for strategy in STRATEGIES:
                for prune in (False, True):
                    assert_serial(
                        own_vocab, ["gen000", "gen004"], algorithm, strategy,
                        4, prune=prune,
                    )


def _word_pool(summaries):
    first = next(iter(summaries.values()))
    return first.vocab.to_list()


class TestRandomQueriesProperty:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_query_identical(self, searcher, data):
        pool = _word_pool(searcher.sampled_summaries)
        term = st.one_of(
            st.sampled_from(pool),
            st.text(
                alphabet="abcxyz-", min_size=1, max_size=8
            ),  # mostly OOV
        )
        query = data.draw(st.lists(term, min_size=0, max_size=5))
        algorithm = data.draw(st.sampled_from(ALGORITHMS))
        strategy = data.draw(st.sampled_from(STRATEGIES))
        assert_serial(searcher, query, algorithm, strategy, 4)


# -- the column store against scored_lookup -------------------------------------


def lookup_oracle(matrix, ids, regime):
    """(rows, ids) probabilities from each summary's own ``scored_lookup``:
    the matrix the column store stands for."""
    ids = np.asarray(ids, dtype=np.int64)
    return np.stack([s.scored_lookup(ids, regime) for s in matrix.summaries])


def assert_bitwise(actual, expected, context=""):
    __tracebackhide__ = True
    assert actual.dtype == expected.dtype, context
    assert actual.shape == expected.shape, context
    assert actual.tobytes() == expected.tobytes(), context


def assert_store_matches_oracle(matrix, regime, width, probe_ids, rows):
    """``gather``, ``gather_rows``, ``column_max``, ``row_max`` and the
    group maxima equal the oracle's arrays bit for bit; ``width`` is the
    vocabulary size when the matrix was built."""
    __tracebackhide__ = True
    dense = lookup_oracle(matrix, np.arange(width), regime)
    defaults = lookup_oracle(matrix, [-1], regime)[:, 0]
    expected = lookup_oracle(matrix, probe_ids, regime)
    assert_bitwise(matrix.gather(probe_ids, regime), expected, "gather")
    assert_bitwise(
        matrix.gather_rows(rows, probe_ids, regime), expected[rows],
        "gather_rows",
    )
    assert_bitwise(matrix.column_max(regime), dense.max(axis=0), "column_max")
    assert_bitwise(
        matrix.row_max(regime),
        np.maximum(dense.max(axis=1), defaults),
        "row_max",
    )
    colmax = matrix.groups.colmax(regime)
    for group, members in enumerate(matrix.groups.rows):
        assert_bitwise(
            colmax[group], dense[members].max(axis=0), f"group {group}"
        )


#: Entry values: exact zeros and ones beside arbitrary probabilities.
VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 1.0]),
    st.floats(min_value=1e-9, max_value=1.0),
)


@st.composite
def summary_sets(draw):
    """A random plain or shrunk summary set over one small vocabulary."""
    width = draw(st.integers(min_value=1, max_value=24))
    vocab = Vocabulary(f"w{i}" for i in range(width))

    def regime():
        ids = sorted(draw(st.sets(st.integers(0, width - 1), max_size=width)))
        values = [draw(VALUES) for _ in ids]
        return np.array(ids, dtype=np.int64), np.array(values)

    shrunk = draw(st.booleans())
    summaries = {}
    for index in range(draw(st.integers(min_value=1, max_value=7))):
        df, tf = regime(), regime()
        plain = ContentSummary(10.0 + index, df, tf, vocab=vocab)
        if shrunk:
            # A zero floor weight gives a shrunk row a zero default.
            lambdas = (draw(st.sampled_from([0.0, 0.2, 0.5])), 0.5)
            tf_lambdas = (draw(st.sampled_from([0.0, 0.3])), 0.7)
            plain = ShrunkSummary(
                plain.size, df, tf, lambdas, tf_lambdas, ("uniform", "db"),
                1.0 / width, plain, vocab=vocab,
            )
        summaries[f"db{index}"] = plain
    labels = [(draw(st.sampled_from("ab")),) for _ in summaries]
    return vocab, summaries, labels


class TestColumnStoreOracle:
    @settings(max_examples=60, deadline=None)
    @given(cell=summary_sets(), data=st.data())
    def test_store_matches_scored_lookup(self, cell, data):
        vocab, summaries, labels = cell
        width = len(vocab)
        matrix = SummarySetMatrix(summaries, labels=labels)
        if data.draw(st.booleans()):
            # The vocabulary grows after the build: the new ids lie past
            # the frozen width and read every row's default.
            vocab.intern_many(["late0", "late1"])
        probe_ids = data.draw(
            st.lists(st.integers(-1, len(vocab) + 1), max_size=6)
        )
        rows = data.draw(
            st.lists(st.integers(0, len(summaries) - 1), max_size=5)
        )
        for regime in ("df", "tf"):
            assert_store_matches_oracle(
                matrix, regime, width, probe_ids, np.array(rows, dtype=np.int64)
            )

    def test_shrunk_store_keeps_support_zeros_and_floor(self):
        vocab = Vocabulary(f"w{i}" for i in range(6))
        df = (np.array([0, 1, 2]), np.array([0.5, 0.0, 0.25]))
        tf = (np.array([0, 4]), np.array([0.75, 0.0]))
        base = ContentSummary(4.0, df, tf, vocab=vocab)
        shrunk = ShrunkSummary(
            4.0, df, tf, (0.5, 0.5), (0.25, 0.75), ("uniform", "db"),
            1.0 / 6, base, vocab=vocab,
        )
        matrix = SummarySetMatrix({"plain": base, "shrunk": shrunk})
        ids = np.array([-1, 0, 1, 2, 3, 4, 5, 6])
        floor = 0.25 / 6
        # tf: ids 1 and 2 are df support without tf mass (0, not the
        # floor); id 4's zero tf entry lies outside the support (floor).
        np.testing.assert_array_equal(
            matrix.gather(ids, "tf")[1],
            [floor, 0.75, 0.0, 0.0, floor, floor, floor, floor],
        )
        np.testing.assert_array_equal(
            matrix.gather(ids, "tf")[0],
            [0.0, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        )
        assert_store_matches_oracle(matrix, "tf", 6, ids, np.array([1, 0]))
        assert_store_matches_oracle(matrix, "df", 6, ids, np.array([1]))
