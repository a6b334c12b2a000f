"""Tests for repro.summaries.summary (ContentSummary, SampledSummary)."""

import functools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.index.document import Document
from repro.index.engine import TextDatabase
from repro.summaries.summary import (
    ContentSummary,
    SampledSummary,
    build_exact_summary,
    build_sampled_summary,
    sorted_union,
    summarize_documents,
)


def docs(*texts):
    return [Document(doc_id=i, terms=tuple(t.split())) for i, t in enumerate(texts)]


class TestContentSummary:
    def test_basic_probabilities(self):
        summary = ContentSummary(100, {"a": 0.5, "b": 0.01})
        assert summary.p("a") == 0.5
        assert summary.p("missing") == 0.0

    def test_document_frequency(self):
        summary = ContentSummary(200, {"a": 0.25})
        assert summary.document_frequency("a") == 50.0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            ContentSummary(-1, {})

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValueError):
            ContentSummary(10, {"a": 1.5})

    def test_tf_defaults_to_normalized_df(self):
        summary = ContentSummary(10, {"a": 0.6, "b": 0.2})
        assert summary.tf_p("a") == pytest.approx(0.75)
        assert summary.tf_p("b") == pytest.approx(0.25)

    def test_explicit_tf_regime(self):
        summary = ContentSummary(10, {"a": 0.6}, {"a": 0.9, "b": 0.1})
        assert summary.tf_p("b") == pytest.approx(0.1)

    def test_words_and_contains(self):
        summary = ContentSummary(10, {"a": 0.1, "b": 0.2})
        assert summary.words() == {"a", "b"}
        assert "a" in summary
        assert "z" not in summary
        assert len(summary) == 2

    def test_effective_words_drop_rule(self):
        # round(|D| * p) >= 1 (Section 5.3 / 6.1)
        summary = ContentSummary(100, {"kept": 0.01, "dropped": 0.004})
        assert summary.effective_words() == {"kept"}

    def test_effective_words_boundary(self):
        # round(100 * 0.005) = 0 under banker's rounding; 0.006 -> 1.
        summary = ContentSummary(100, {"edge": 0.006})
        assert summary.effective_words() == {"edge"}

    def test_df_mass(self):
        summary = ContentSummary(100, {"a": 0.5, "b": 0.1, "tiny": 0.001})
        assert summary.df_mass() == 60.0

    def test_probabilities_regimes(self):
        summary = ContentSummary(10, {"a": 0.4}, {"a": 1.0})
        assert summary.probabilities("df") == {"a": 0.4}
        assert summary.probabilities("tf") == {"a": 1.0}
        with pytest.raises(ValueError):
            summary.probabilities("nope")

    def test_empty_summary(self):
        summary = ContentSummary(0, {})
        assert summary.words() == set()
        assert summary.tf_p("x") == 0.0

    @given(
        st.dictionaries(
            st.sampled_from("abcdef"),
            st.floats(min_value=0.0, max_value=1.0),
            max_size=6,
        ),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_effective_words_subset_of_words(self, probs, size):
        summary = ContentSummary(size, probs)
        assert summary.effective_words() <= summary.words()


class TestSummarizeDocuments:
    def test_counts(self):
        n, df, tf = summarize_documents(docs("a a b", "b c"))
        assert n == 2
        assert df == {"a": 1, "b": 2, "c": 1}
        assert tf == {"a": 2, "b": 2, "c": 1}

    def test_empty(self):
        assert summarize_documents([]) == (0, {}, {})


class TestBuildExactSummary:
    def test_matches_definition_one(self):
        db = TextDatabase("d", docs("a a b", "b c", "a"))
        summary = build_exact_summary(db)
        assert summary.size == 3
        assert summary.p("a") == pytest.approx(2 / 3)
        assert summary.p("b") == pytest.approx(2 / 3)
        assert summary.p("c") == pytest.approx(1 / 3)

    def test_tf_regime_lm_definition(self):
        db = TextDatabase("d", docs("a a b", "c"))
        summary = build_exact_summary(db)
        assert summary.tf_p("a") == pytest.approx(0.5)
        assert summary.tf_p("b") == pytest.approx(0.25)

    def test_empty_database(self):
        summary = build_exact_summary(TextDatabase("d", []))
        assert summary.size == 0
        assert summary.words() == set()


class TestSampledSummary:
    def test_build_from_sample(self):
        summary = build_sampled_summary(docs("a b", "a c"), estimated_size=100)
        assert summary.sample_size == 2
        assert summary.size == 100
        assert summary.p("a") == pytest.approx(1.0)
        assert summary.p("b") == pytest.approx(0.5)
        assert summary.sample_frequency("a") == 2

    def test_empty_sample(self):
        summary = build_sampled_summary([], estimated_size=50)
        assert summary.sample_size == 0
        assert summary.words() == set()

    def test_rejects_negative_sample_size(self):
        with pytest.raises(ValueError):
            SampledSummary(10, {}, {}, -1, {})

    def test_leave_one_out_df(self):
        summary = build_sampled_summary(docs("a b", "a c"), estimated_size=100)
        loo = summary.leave_one_out_probabilities("df", discount=1.0)
        assert loo["a"] == pytest.approx(0.5)  # (2-1)/2
        assert loo["b"] == pytest.approx(0.0)  # singleton drops to zero

    def test_leave_one_out_fractional(self):
        summary = build_sampled_summary(docs("a b", "a c"), estimated_size=100)
        loo = summary.leave_one_out_probabilities("df", discount=0.5)
        assert loo["b"] == pytest.approx(0.25)  # (1-0.5)/2

    def test_leave_one_out_tf(self):
        summary = build_sampled_summary(docs("a a b",), estimated_size=10)
        loo = summary.leave_one_out_probabilities("tf", discount=1.0)
        assert loo["a"] == pytest.approx(1 / 3)
        assert loo["b"] == pytest.approx(0.0)

    def test_leave_one_out_bad_discount(self):
        summary = build_sampled_summary(docs("a",), estimated_size=10)
        with pytest.raises(ValueError):
            summary.leave_one_out_probabilities("df", discount=2.0)

    def test_leave_one_out_bad_regime(self):
        summary = build_sampled_summary(docs("a",), estimated_size=10)
        with pytest.raises(ValueError):
            summary.leave_one_out_probabilities("xx")

    @given(st.lists(st.sampled_from(["a b", "b c", "a", "c d e"]), max_size=8))
    def test_loo_never_exceeds_raw(self, texts):
        summary = build_sampled_summary(docs(*texts), estimated_size=100)
        loo = summary.leave_one_out_probabilities("df", discount=1.0)
        for word, value in loo.items():
            assert value <= summary.p(word) + 1e-12


def _id_array(ids: set[int], dtype: str) -> np.ndarray:
    return np.array(sorted(ids), dtype=dtype)


class TestSortedUnion:
    @given(
        st.lists(
            st.builds(
                _id_array,
                st.sets(st.integers(min_value=0, max_value=200), max_size=30),
                st.sampled_from(["int32", "int64"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example([np.array([], dtype="int64")])
    @example([np.array([], dtype="int32"), np.array([], dtype="int64")])
    @example([np.array([3, 7], dtype="int32")])
    def test_equals_reduced_union1d(self, arrays):
        expected = functools.reduce(np.union1d, arrays)
        union = sorted_union(*arrays)
        assert union.dtype == expected.dtype
        assert np.array_equal(union, expected)
