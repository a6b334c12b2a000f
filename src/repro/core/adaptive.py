"""Adaptive use of shrinkage during database selection (Section 4, App. B).

Shrinkage should only replace a database's own summary when the score that
the selection algorithm would assign is *uncertain*. The uncertainty model:

* The database sample ``S`` (size ``|S|``) showed query word ``w_k`` in
  ``s_k`` documents. The unknown true document frequency ``d_k`` then has
  posterior  ``p(d_k | s_k) ∝ p(s_k | d_k) * p(d_k)`` with

  - ``p(s_k | d_k)``: binomial — each of the ``|S|`` sampled documents
    contains ``w_k`` independently with probability ``d_k / |D|``;
  - ``p(d_k)``: a power-law prior ``d_k ** gamma`` with
    ``gamma = 1 / alpha - 1`` where ``alpha`` is the database's Mandelbrot
    rank-frequency exponent (Appendix A / [1]). The support starts at
    ``d_k = 1``: the paper's Equation 3 sums over frequencies of words
    that exist in the collection vocabulary.

* Drawing ``d_1..d_n`` combinations from these posteriors induces a
  distribution over scores ``s(q, D)``. When its standard deviation
  exceeds its mean, the sampled summary is deemed unreliable and the
  shrunk summary R(D) is used instead (Figure 3).

For scorers that decompose over query words (all three in the paper —
bGlOSS and LM multiply per-word factors, CORI averages them), the mean and
variance are computed *analytically* from per-word moments, the fast path
Section 4 describes; a Monte-Carlo fallback covers arbitrary scorers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.lru import MISSING
from repro.summaries.summary import ContentSummary, SampledSummary


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of the score-distribution model."""

    #: Prior exponent used when the sample has no usable Mandelbrot fit.
    default_gamma: float = -2.0
    #: Cap on the posterior support size; larger databases use a geometric
    #: grid of this many points (posteriors are smooth in log d).
    max_support: int = 4000
    #: Monte-Carlo combinations examined between convergence checks, and
    #: their overall cap ("a few hundred", Section 4).
    mc_batch: int = 100
    mc_max_combinations: int = 600
    mc_tolerance: float = 0.02
    #: For additive scorers (CORI), aggregate per-word standard deviations
    #: linearly (the Cauchy–Schwarz upper bound, exact under maximal
    #: correlation) instead of in quadrature. Under independence the
    #: aggregate std shrinks as 1/sqrt(|q|) while the mean does not, so
    #: the std > mean test could never fire for multi-word queries on a
    #: floor-bounded scorer — yet Table 10 reports CORI applying shrinkage
    #: for 13–17% of pairs. The conservative bound restores the intended
    #: behaviour: uncertainty is flagged when the *per-word* estimates are
    #: individually unreliable.
    conservative_sum_variance: bool = True


@dataclass(frozen=True)
class AdaptiveDecision:
    """Outcome of the content-summary-selection step for one (q, D) pair.

    ``floor`` is the score the algorithm assigns when no query word is in
    the summary at all. The uncertainty test compares the score
    distribution's standard deviation against the *excess* mean above this
    floor: scorers like CORI add a constant 0.4 belief per word, which is
    certainty about nothing — counting it as "mean" would make the
    paper's std > mean rule unsatisfiable for CORI (whose scores live in
    [0.4, 1]) while Table 10 reports CORI applying shrinkage for 13–17% of
    the pairs.
    """

    use_shrinkage: bool
    mean: float
    std: float
    floor: float = 0.0


class ScoreDistributionModel:
    """Posterior over s(q, D) induced by document-frequency uncertainty."""

    def __init__(
        self,
        summary: SampledSummary,
        config: AdaptiveConfig | None = None,
        moment_cache: dict | None = None,
    ) -> None:
        self.summary = summary
        self.config = config or AdaptiveConfig()
        #: Optional cache of per-word score moments, keyed by
        #: (scorer name, word). Sound as long as a scorer's corpus-level
        #: statistics stay fixed, which holds within one summary set.
        self.moment_cache = moment_cache
        # The posterior support grid depends only on |D|, which is fixed
        # per model; every query word reuses the same grid and its
        # word-independent log terms.
        self._grid_cache: tuple[int, tuple[np.ndarray, ...]] | None = None

    @property
    def gamma(self) -> float:
        """Power-law prior exponent: gamma = 1/alpha - 1 (Appendix B)."""
        alpha = self.summary.alpha
        if alpha is None or alpha >= -1e-6:
            return self.config.default_gamma
        return 1.0 / alpha - 1.0

    def word_posterior(self, word: str) -> tuple[np.ndarray, np.ndarray]:
        """(support, probabilities) of the true document frequency of ``word``."""
        database_size = max(int(round(self.summary.size)), 1)
        sample_size = self.summary.sample_size
        observed = min(self.summary.sample_frequency(word), sample_size)

        support, log_support, log_ratio, log_miss, log_widths = self._grid(
            database_size
        )
        log_weights = self.gamma * log_support + observed * log_ratio
        if observed < sample_size:
            # The miss term only exists when some sampled document lacks
            # the word; a word in every sampled document (s = |S|) has
            # none, and 0 * log(0) must not turn d = |D| into NaN.
            log_weights += (sample_size - observed) * log_miss
        if log_widths is not None:
            log_weights += log_widths
        if not np.any(np.isfinite(log_weights)):
            # Degenerate (e.g. |D| = 1 while some sampled document lacks
            # the word): put all mass on the largest support value.
            probabilities = np.zeros_like(support, dtype=float)
            probabilities[-1] = 1.0
            return support, probabilities
        log_weights -= log_weights.max()
        weights = np.exp(log_weights)
        return support, weights / weights.sum()

    def _support(self, database_size: int) -> np.ndarray:
        if database_size <= self.config.max_support:
            return np.arange(1, database_size + 1, dtype=np.float64)
        grid = np.unique(
            np.round(
                np.geomspace(1, database_size, self.config.max_support)
            ).astype(np.int64)
        )
        return grid.astype(np.float64)

    def _grid(self, database_size: int) -> tuple[np.ndarray, ...]:
        """Support grid plus its word-independent log terms, cached.

        Returns ``(support, log(support), log(d/|D|), log1p(-d/|D|),
        log_widths-or-None)``; only the binomial exponents vary per word,
        so everything else is computed once per model.
        """
        cached = self._grid_cache
        if cached is not None and cached[0] == database_size:
            return cached[1]
        support = self._support(database_size)
        ratio = support / database_size
        with np.errstate(divide="ignore"):
            log_support = np.log(support)
            log_ratio = np.log(ratio)
            log_miss = np.log1p(-np.clip(ratio, 0.0, 1.0))
        log_widths = None
        if support.size > 1 and support.size < database_size:
            # Geometric grid: weight each point by the width of the stretch
            # of integers it represents, so the subsampled posterior is an
            # unbiased quadrature of the dense one.
            widths = np.empty_like(support)
            widths[1:-1] = (support[2:] - support[:-2]) / 2.0
            widths[0] = (support[1] - support[0] + 1) / 2.0
            widths[-1] = (support[-1] - support[-2] + 1) / 2.0
            log_widths = np.log(widths)
        grid = (support, log_support, log_ratio, log_miss, log_widths)
        self._grid_cache = (database_size, grid)
        return grid

    # -- analytic moments ------------------------------------------------------

    def score_moments(
        self, scorer, query_terms: Sequence[str]
    ) -> tuple[float, float]:
        """Mean and standard deviation of s(q, D) under the posterior."""
        if scorer.word_decomposition in ("product", "sum"):
            return self._analytic_moments(scorer, query_terms)
        return self._monte_carlo_moments(scorer, query_terms)

    def _word_score_moments(
        self, scorer, word: str
    ) -> tuple[float, float]:
        """E[g] and E[g^2] of the per-word score component."""
        if self.moment_cache is not None:
            cached = self.moment_cache.get((scorer.name, word), MISSING)
            if cached is not MISSING:
                return cached
        support, probabilities = self.word_posterior(word)
        database_size = max(self.summary.size, 1.0)
        scale = scorer.hypothetical_probability_scale(self.summary)
        values = scorer.word_score_vector(
            support * (scale / database_size), self.summary, word
        )
        mean = float(np.dot(probabilities, values))
        second = float(np.dot(probabilities, values**2))
        if self.moment_cache is not None:
            self.moment_cache[(scorer.name, word)] = (mean, second)
        return mean, second

    def _analytic_moments(
        self, scorer, query_terms: Sequence[str]
    ) -> tuple[float, float]:
        """Exploit per-word independence (the fast path of Section 4)."""
        firsts: list[float] = []
        seconds: list[float] = []
        for word in query_terms:
            first, second = self._word_score_moments(scorer, word)
            firsts.append(first)
            seconds.append(second)
        if scorer.word_decomposition == "product":
            scale = scorer.scale(self.summary)
            mean = scale * math.prod(firsts)
            mean_square = scale**2 * math.prod(seconds)
        else:  # sum: combine() handles normalization (e.g. CORI's /|q|)
            if not query_terms:
                return 0.0, 0.0
            mean = scorer.combine(firsts, self.summary)
            # combine(scores) = factor * sum(scores) for a linear combine;
            # recover the factor to scale the aggregated deviation.
            factor = scorer.combine([1.0] * len(query_terms), self.summary) / len(
                query_terms
            )
            deviations = [
                math.sqrt(max(second - first**2, 0.0))
                for first, second in zip(firsts, seconds)
            ]
            if self.config.conservative_sum_variance:
                std = factor * sum(deviations)  # Cauchy–Schwarz upper bound
            else:
                std = factor * math.sqrt(sum(d**2 for d in deviations))
            return mean, std
        variance = mean_square - mean**2
        return mean, math.sqrt(max(variance, 0.0))

    # -- Monte-Carlo fallback --------------------------------------------------

    def _monte_carlo_moments(
        self,
        scorer,
        query_terms: Sequence[str],
        rng: np.random.Generator | None = None,
    ) -> tuple[float, float]:
        """Random d_1..d_n combinations until mean and variance stabilize.

        Draws are batched per word — one vectorized ``rng.choice`` and one
        ``word_score_vector`` call per word per convergence round — instead
        of one scalar draw per (sample, word). The rng therefore consumes
        draws word-blocked rather than sample-interleaved: the sample set
        differs from the scalar formulation's for the same seed, but it is
        the same posterior product distribution, and the moments agree
        within Monte-Carlo tolerance (asserted by the regression test).
        """
        rng = rng or np.random.default_rng(0)
        config = self.config
        database_size = max(self.summary.size, 1.0)
        scale = scorer.hypothetical_probability_scale(self.summary)
        posteriors = [self.word_posterior(word) for word in query_terms]

        samples: list[float] = []
        previous: tuple[float, float] | None = None
        while len(samples) < config.mc_max_combinations:
            batch = config.mc_batch
            columns = [
                scorer.word_score_vector(
                    support[rng.choice(support.size, size=batch, p=probabilities)]
                    * scale
                    / database_size,
                    self.summary,
                    word,
                )
                for word, (support, probabilities) in zip(query_terms, posteriors)
            ]
            if columns:
                rows = np.stack(columns, axis=1).tolist()
            else:
                rows = [[] for _ in range(batch)]
            samples.extend(
                scorer.combine(word_scores, self.summary) for word_scores in rows
            )
            mean = float(np.mean(samples))
            std = float(np.std(samples))
            if previous is not None:
                previous_mean, previous_std = previous
                mean_stable = math.isclose(
                    mean, previous_mean, rel_tol=config.mc_tolerance, abs_tol=1e-12
                )
                std_stable = math.isclose(
                    std, previous_std, rel_tol=config.mc_tolerance, abs_tol=1e-12
                )
                if mean_stable and std_stable:
                    break
            previous = (mean, std)
        return float(np.mean(samples)), float(np.std(samples))


def decide_summary(
    scorer,
    query_terms: Sequence[str],
    sampled_summary: SampledSummary,
    config: AdaptiveConfig | None = None,
    floor: float | None = None,
) -> AdaptiveDecision:
    """The content-summary-selection step of Figure 3 for one database.

    Returns the decision to use the shrunk summary (score distribution has
    standard deviation larger than its mean in excess of the floor score)
    together with the computed moments. ``floor`` short-circuits the floor
    computation when the caller already has it (the batched engine computes
    floors for all databases at once); it must equal
    ``scorer.floor_score(query_terms, sampled_summary)`` bit-for-bit.
    """
    model = ScoreDistributionModel(sampled_summary, config)
    mean, std = model.score_moments(scorer, query_terms)
    if floor is None:
        floor = scorer.floor_score(query_terms, sampled_summary)
    return AdaptiveDecision(
        use_shrinkage=std > mean - floor, mean=mean, std=std, floor=floor
    )


def choose_summaries(
    scorer,
    query_terms: Sequence[str],
    sampled_summaries: dict[str, SampledSummary],
    shrunk_summaries: dict[str, ContentSummary],
    config: AdaptiveConfig | None = None,
    floors: Mapping[str, float] | None = None,
) -> tuple[dict[str, ContentSummary], dict[str, AdaptiveDecision]]:
    """Pick A(D) per database: R(D) when uncertain, S(D) otherwise.

    Floor scores are computed for all databases in one batched pass when
    the summaries stack into a score matrix (the common shared-vocabulary
    case); pass ``floors`` to reuse floors the caller already computed.
    """
    # Local imports: repro.evaluation (and repro.selection.batch, which
    # reaches into repro.core) would cycle at package-init time — see the
    # note in shrinkage._em_core.
    from repro.evaluation.instrument import count

    if floors is None:
        from repro.selection.batch import batch_floor_map

        floors = batch_floor_map(scorer, query_terms, sampled_summaries)

    chosen: dict[str, ContentSummary] = {}
    decisions: dict[str, AdaptiveDecision] = {}
    for name, sampled in sampled_summaries.items():
        decision = decide_summary(
            scorer,
            query_terms,
            sampled,
            config,
            floor=None if floors is None else floors.get(name),
        )
        decisions[name] = decision
        if decision.use_shrinkage and name in shrunk_summaries:
            chosen[name] = shrunk_summaries[name]
        else:
            chosen[name] = sampled
    count("adaptive.decisions", len(decisions))
    count(
        "adaptive.use_shrinkage",
        sum(1 for d in decisions.values() if d.use_shrinkage),
    )
    return chosen, decisions
