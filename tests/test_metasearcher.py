"""Tests for repro.selection.metasearcher."""

import pytest

from repro.selection.metasearcher import (
    Metasearcher,
    SelectionOutcome,
    SelectionStrategy,
)


@pytest.fixture(scope="module")
def metasearcher(tiny_testbed, tiny_summaries):
    summaries, classifications = tiny_summaries
    return Metasearcher(tiny_testbed.hierarchy, summaries, classifications)


@pytest.fixture(scope="module")
def query(tiny_testbed):
    from repro.corpus.queries import generate_workload

    workload = generate_workload(tiny_testbed, kind="short", num_queries=4, seed=5)
    return list(workload.queries[0].terms)


class TestConstruction:
    def test_shrunk_summaries_lazy_and_cached(self, metasearcher):
        first = metasearcher.shrunk_summaries
        assert metasearcher.shrunk_summaries is first
        assert set(first) == set(metasearcher.sampled_summaries)

    def test_make_scorer_variants(self, metasearcher):
        assert metasearcher.make_scorer("bgloss").name == "bGlOSS"
        assert metasearcher.make_scorer("cori").name == "CORI"
        assert metasearcher.make_scorer("lm").name == "LM"

    def test_make_scorer_case_insensitive(self, metasearcher):
        assert metasearcher.make_scorer("CORI").name == "CORI"

    def test_unknown_algorithm(self, metasearcher):
        with pytest.raises(ValueError):
            metasearcher.make_scorer("pagerank")

    def test_lm_scorer_gets_root_global(self, metasearcher):
        scorer = metasearcher.make_scorer("lm")
        root = metasearcher.builder.category_summary(("Root",))
        some_word = next(iter(root.words()))
        assert scorer.global_probability(some_word) == pytest.approx(
            root.tf_p(some_word)
        )


class TestSelect:
    @pytest.mark.parametrize("algorithm", ["bgloss", "cori", "lm"])
    @pytest.mark.parametrize(
        "strategy", ["plain", "shrinkage", "universal", "hierarchical"]
    )
    def test_all_combinations_run(self, metasearcher, query, algorithm, strategy):
        outcome = metasearcher.select(query, algorithm, strategy, k=3)
        assert isinstance(outcome, SelectionOutcome)
        assert len(outcome.names) <= 3
        assert len(set(outcome.names)) == len(outcome.names)

    def test_selected_names_are_databases(self, metasearcher, query):
        outcome = metasearcher.select(query, "cori", "plain", k=4)
        assert set(outcome.names) <= set(metasearcher.sampled_summaries)

    def test_shrinkage_strategy_reports_decisions(self, metasearcher, query):
        outcome = metasearcher.select(query, "bgloss", "shrinkage", k=3)
        assert outcome.decisions is not None
        assert set(outcome.decisions) == set(metasearcher.sampled_summaries)
        assert outcome.shrinkage_applications == sum(
            1 for d in outcome.decisions.values() if d.use_shrinkage
        )

    def test_plain_strategy_has_no_decisions(self, metasearcher, query):
        outcome = metasearcher.select(query, "bgloss", "plain", k=3)
        assert outcome.decisions is None
        assert outcome.shrinkage_applications == 0

    def test_strategy_accepts_enum_and_string(self, metasearcher, query):
        a = metasearcher.select(query, "lm", SelectionStrategy.PLAIN, k=2)
        b = metasearcher.select(query, "lm", "plain", k=2)
        assert a.names == b.names

    def test_unknown_strategy_rejected(self, metasearcher, query):
        with pytest.raises(ValueError):
            metasearcher.select(query, "lm", "magic", k=2)

    def test_universal_uses_shrunk_scores(self, metasearcher, query):
        plain = metasearcher.select(query, "bgloss", "plain", k=10)
        universal = metasearcher.select(query, "bgloss", "universal", k=10)
        # Shrunk summaries give every database a non-zero bGlOSS score,
        # so universal shrinkage selects at least as many databases.
        assert len(universal.names) >= len(plain.names)

    def test_scores_recorded(self, metasearcher, query):
        outcome = metasearcher.select(query, "cori", "plain", k=3)
        assert set(outcome.scores) == set(metasearcher.sampled_summaries)

    def test_prepared_scorer_reuse(self, metasearcher, query):
        metasearcher.select(query, "cori", "plain", k=2)
        first = metasearcher.engine_scorers()[("cori", "plain")]
        metasearcher.select(query, "cori", "plain", k=2)
        assert metasearcher.engine_scorers()[("cori", "plain")] is first

    def test_determinism(self, metasearcher, query):
        a = metasearcher.select(query, "lm", "shrinkage", k=5)
        b = metasearcher.select(query, "lm", "shrinkage", k=5)
        assert a.names == b.names
