"""Language-model database selection — Si et al. [28].

    s(q, D) = prod_{w in q} ( lambda * p(w|D) + (1 - lambda) * p(w|G) )

with ``lambda = 0.5`` as suggested in [28], ``G`` a "global" category
(here: the Root category summary), and ``p(w|D)`` in the *term-frequency*
regime (``tf(w, D) / sum_i tf(w_i, D)``) — Section 5.3. LM is equivalent
to the KL-based selection of [31].

The paper notes that its shrinkage technique generalizes exactly this
single-level smoothing to multi-level smoothing over the hierarchy.

The global model can be installed either as a plain word → probability
mapping or directly as a :class:`~repro.summaries.summary.ContentSummary`
(its tf regime is used); the summary form keeps p(w|G) lookups columnar —
one id-array gather per query instead of per-word dict probes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.lru import MISSING, LruCache
from repro.selection.base import DatabaseScorer
from repro.summaries.summary import ContentSummary

#: Bound on the per-query p(w|G) vector cache (see base.QUERY_IDS_CACHE_SIZE).
_GLOBAL_CACHE_SIZE = 512


class LanguageModelScorer(DatabaseScorer):
    """The LM scorer (term-frequency regime)."""

    name = "LM"
    word_decomposition = "product"
    regime = "tf"

    def __init__(
        self,
        global_probabilities: Mapping[str, float] | ContentSummary | None = None,
        smoothing_lambda: float = 0.5,
    ) -> None:
        if not 0.0 <= smoothing_lambda <= 1.0:
            raise ValueError("smoothing_lambda must lie in [0, 1]")
        self.smoothing_lambda = smoothing_lambda
        self._global: dict[str, float] = {}
        self._global_summary: ContentSummary | None = None
        self._global_cache = LruCache(_GLOBAL_CACHE_SIZE)
        if global_probabilities is not None:
            self.set_global_probabilities(global_probabilities)

    def set_global_probabilities(
        self, global_probabilities: Mapping[str, float] | ContentSummary
    ) -> None:
        """Install p(w|G), typically the Root category's tf summary."""
        if isinstance(global_probabilities, ContentSummary):
            self._global_summary = global_probabilities
            self._global = {}
        else:
            self._global_summary = None
            self._global = dict(global_probabilities)
        self._global_cache = LruCache(_GLOBAL_CACHE_SIZE)

    def global_probability(self, word: str) -> float:
        """p(w|G) for ``word`` (0 when the word is unknown globally)."""
        if self._global_summary is not None:
            return self._global_summary.tf_p(word)
        return self._global.get(word, 0.0)

    def _global_vector(self, query_terms: tuple[str, ...]) -> np.ndarray:
        """Per-word p(w|G) for a query, cached per query tuple."""
        cached = self._global_cache.get(query_terms, MISSING)
        if cached is MISSING:
            if self._global_summary is not None:
                cached = self._global_summary.query_probabilities(
                    query_terms, "tf"
                )
            else:
                get = self._global.get
                cached = np.array(
                    [get(word, 0.0) for word in query_terms], dtype=np.float64
                )
            self._global_cache.put(query_terms, cached)
        return cached

    def score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        probabilities = self.query_vector(query_terms, summary, "tf")
        word_scores = (
            self.smoothing_lambda * probabilities
            + (1.0 - self.smoothing_lambda)
            * self._global_vector(tuple(query_terms))
        )
        # Sequential product: bit-identical to the per-word loop, which the
        # exact floor comparison in rank_databases depends on.
        score = 1.0
        for word_score in word_scores.tolist():
            score *= word_score
        return score

    def word_score(
        self, probability: float, summary: ContentSummary, word: str
    ) -> float:
        return (
            self.smoothing_lambda * probability
            + (1.0 - self.smoothing_lambda) * self.global_probability(word)
        )

    def word_score_vector(
        self, probabilities: np.ndarray, summary: ContentSummary, word: str
    ) -> np.ndarray:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        return (
            self.smoothing_lambda * probabilities
            + (1.0 - self.smoothing_lambda) * self.global_probability(word)
        )

    def hypothetical_probability_scale(self, summary: ContentSummary) -> float:
        """Observed tf/df probability ratio of the summary.

        A hypothetical document frequency d implies a term-frequency
        probability of roughly (d/|D|) * (sum_w p_tf / sum_w p_df); the
        sums over the summary's own words estimate that corpus ratio
        (cached on the summary — see ``df_total``/``tf_total``).
        """
        df_mass = summary.df_total()
        tf_mass = summary.tf_total()
        if df_mass <= 0.0:
            return 1.0
        return tf_mass / df_mass

    def scale(self, summary: ContentSummary) -> float:
        return 1.0

    def _floor_value(self, query_terms: Sequence[str]) -> float:
        # The floor is database-independent: lambda * 0 + (1-lambda) * p(w|G)
        # per word, folded in the same order as the scalar path.
        floor = 1.0
        for word in query_terms:
            floor *= (
                self.smoothing_lambda * 0.0
                + (1.0 - self.smoothing_lambda) * self.global_probability(word)
            )
        return floor

    def floor_scores(
        self, query_terms: Sequence[str], sizes: np.ndarray
    ) -> np.ndarray:
        return np.full(sizes.size, self._floor_value(query_terms), dtype=np.float64)

    def row_scores(
        self,
        query_terms: Sequence[str],
        probabilities: np.ndarray,
        sizes: np.ndarray,
        cw: np.ndarray | None = None,
        statistics=None,
        upper: bool = False,
    ) -> np.ndarray:
        # LM's only corpus-level input, p(w|G), is the Root category model
        # — the same for every summary set and mix. lambda * p + (1 -
        # lambda) * p(w|G) is a single monotone rounded chain in p, so the
        # same expression over per-word maxima dominates every covered row,
        # and a zero maximum reproduces the floor factor exactly.
        word_scores = (
            self.smoothing_lambda * probabilities
            + (1.0 - self.smoothing_lambda)
            * self._global_vector(tuple(query_terms))
        )
        scores = np.ones(probabilities.shape[0], dtype=np.float64)
        for column in word_scores.T:
            scores = scores * column
        return scores
