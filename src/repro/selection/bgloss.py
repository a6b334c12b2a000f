"""bGlOSS database selection — Gravano et al. [13].

Databases are ranked by the expected number of query matches under a
word-independence assumption:

    s(q, D) = |D| * prod_{w in q} p(w|D)

bGlOSS has no built-in smoothing: a single query word missing from the
summary zeroes the whole score. This is exactly why the paper finds that
*universal* shrinkage helps bGlOSS even where it hurts CORI and LM
(Section 6.2, "Adaptive vs. Universal Application of Shrinkage").
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.selection.base import DatabaseScorer
from repro.summaries.summary import ContentSummary


def _fold_product(scales: np.ndarray, word_scores: np.ndarray) -> np.ndarray:
    """Per-database product fold, word-sequential like the scalar loop."""
    scores = scales.copy()
    for column in word_scores.T:
        scores = scores * column
    return scores


class BGlossScorer(DatabaseScorer):
    """The bGlOSS scorer (document-frequency regime)."""

    name = "bGlOSS"
    word_decomposition = "product"
    regime = "df"

    def score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        # One vectorized probability lookup; the product is reduced
        # sequentially in Python so scores stay bit-identical to the
        # per-word formulation (the floor comparison in rank_databases
        # relies on exact equality).
        score = self.scale(summary)
        for probability in self.query_vector(query_terms, summary, "df").tolist():
            score *= probability
        return score

    def word_score(
        self, probability: float, summary: ContentSummary, word: str
    ) -> float:
        return probability

    def word_score_vector(
        self, probabilities: np.ndarray, summary: ContentSummary, word: str
    ) -> np.ndarray:
        return np.asarray(probabilities, dtype=np.float64)

    def scale(self, summary: ContentSummary) -> float:
        return summary.size

    def floor_scores(
        self, query_terms: Sequence[str], sizes: np.ndarray
    ) -> np.ndarray:
        # The scalar floor fold is |D| * 0.0 * ... * 0.0 — exactly +0.0
        # after the first word — and just |D| for the empty query.
        if query_terms:
            return np.zeros(sizes.size, dtype=np.float64)
        return sizes.copy()

    def row_scores(
        self,
        query_terms: Sequence[str],
        probabilities: np.ndarray,
        sizes: np.ndarray,
        cw: np.ndarray | None = None,
        statistics=None,
        upper: bool = False,
    ) -> np.ndarray:
        # |D| * prod p(w|D) is monotone in every input and rounding is
        # monotone per operation, so the same fold over per-word maxima
        # dominates every covered row's score; a zero maximum zeroes the
        # bound exactly like the floor fold.
        return _fold_product(sizes, probabilities)
