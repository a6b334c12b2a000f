"""Shrunk content summaries (Definition 4) and the EM of Figure 2.

The shrunk summary of a database ``D`` classified under ``C1..Cm`` is the
mixture

    pR(w|D) = lambda_{m+1} * p(w|D) + sum_{i=0..m} lambda_i * p(w|C_i)

where ``C0`` is a dummy category assigning the same probability to every
word (uniform over the corpus-wide vocabulary). The mixture weights are
learned per database by the expectation–maximization procedure of Figure 2:
the E step measures the "similarity" of each component with the current
mixture over the words of the database's own sampled summary, and the M
step renormalizes. The weights are computed offline, once per database —
no query-time overhead (Section 3.2).

This is the hottest loop in the repo, so EM runs columnar: the components
become a ``(m+2, |words|)`` probability matrix over vocabulary ids and
each E/M step is a handful of array operations. :func:`_run_em` keeps the
original mapping-based signature as a thin wrapper over the array core.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from collections.abc import Mapping, MutableMapping, Sequence

import numpy as np

from repro.core.category import CategorySummaryBuilder
from repro.core.lru import MISSING
from repro.core.vocab import Vocabulary
from repro.summaries.summary import (
    ContentSummary,
    IdProbs,
    SampledSummary,
    rehome_summary,
    sorted_union,
)


@dataclass(frozen=True)
class ShrinkageConfig:
    """EM parameters.

    ``epsilon`` is the convergence threshold on the largest per-iteration
    change of any lambda (the paper's "small epsilon");
    ``max_iterations`` bounds runaway EM on degenerate inputs;
    ``loo_discount`` is the fraction of each word's own observation removed
    from the database component during the E step (the leave-one-out
    correction of McCallum et al. [22] — see ``_run_em``). 0 disables the
    correction (pure Figure 2, which degenerates to an all-database
    mixture); 1 removes a full observation, which over-penalizes singleton
    words; the 0.75 default yields mixture weights in the regime the
    paper's Table 2 reports (database highest, its category a close
    second, ancestors small but non-negligible).
    """

    epsilon: float = 1e-4
    max_iterations: int = 200
    loo_discount: float = 0.75


class ShrunkSummary(ContentSummary):
    """A shrinkage-based content summary R(D).

    Stores explicit probabilities for every word of any mixture component;
    all *other* words receive the uniform-component floor
    ``lambda_0 * p(w|C0)``, which is how "every word appears with non-zero
    probability in every shrunk content summary" (Section 5.3).
    """

    def __init__(
        self,
        size: float,
        df_probs: Mapping[str, float] | IdProbs,
        tf_probs: Mapping[str, float] | IdProbs,
        lambdas: Sequence[float],
        tf_lambdas: Sequence[float],
        component_names: Sequence[str],
        uniform_probability: float,
        base: SampledSummary | ContentSummary,
        *,
        vocab: Vocabulary | None = None,
    ) -> None:
        super().__init__(size, df_probs, tf_probs, vocab=vocab)
        self.lambdas = tuple(lambdas)
        self.tf_lambdas = tuple(tf_lambdas)
        self.component_names = tuple(component_names)
        self.uniform_probability = uniform_probability
        self.base = base

    def p(self, word: str) -> float:
        explicit = super().p(word)
        if explicit > 0.0 or word in self:
            return explicit
        return self.lambdas[0] * self.uniform_probability

    def tf_p(self, word: str) -> float:
        explicit = super().tf_p(word)
        if explicit > 0.0 or word in self:
            return explicit
        return self.tf_lambdas[0] * self.uniform_probability

    def scored_lookup(self, ids: np.ndarray, regime: str = "df") -> np.ndarray:
        """Vectorized :meth:`p` / :meth:`tf_p`: ids outside the summary's
        support fall back to the uniform-component floor."""
        values = self.lookup_ids(ids, regime)
        floor_lambda = (
            self.lambdas[0] if regime == "df" else self.tf_lambdas[0]
        )
        floor = floor_lambda * self.uniform_probability
        return np.where(
            (values > 0.0) | self._ids_in_support(ids), values, floor
        )

    def mixture_weights(self) -> dict[str, float]:
        """{component name: lambda} for the document-frequency regime."""
        return dict(zip(self.component_names, self.lambdas))

    def rehomed(
        self, vocab: Vocabulary, base: ContentSummary | None = None
    ) -> "ShrunkSummary":
        return ShrunkSummary(
            size=self.size,
            df_probs=self.regime_arrays("df", vocab),
            tf_probs=self.regime_arrays("tf", vocab),
            lambdas=self.lambdas,
            tf_lambdas=self.tf_lambdas,
            component_names=self.component_names,
            uniform_probability=self.uniform_probability,
            base=base if base is not None else rehome_summary(self.base, vocab),
            vocab=vocab,
        )


def _em_core(columns: np.ndarray, config: ShrinkageConfig) -> list[float]:
    """Figure 2 over a dense ``(num_components, num_words)`` matrix.

    Row 0 is the uniform component C0, rows 1..m the categories, the last
    row the database itself (leave-one-out corrected when configured).
    The E step is one matrix-vector product plus a masked column-normalized
    sum; the M step a renormalization.
    """
    # Imported here, not at module top: repro.evaluation would pull
    # repro.summaries.io back into this partially initialized module.
    from repro.evaluation.instrument import annotate, count, observe, tracing_active

    num_components, num_words = columns.shape
    if num_words == 0:
        # Degenerate: an empty sample gives EM nothing to fit. Uniform
        # weights keep the mixture well-defined.
        return [1.0 / num_components] * num_components

    traced = tracing_active()
    ll_trail: list[float] = []
    lambdas = np.full(num_components, 1.0 / num_components)
    iterations = 0
    for _iteration in range(config.max_iterations):
        iterations += 1
        mixture = lambdas @ columns
        positive = mixture > 0.0
        if positive.any():
            if traced:
                ll_trail.append(float(np.log(mixture[positive]).sum()))
            ratios = columns[:, positive] / mixture[positive]
            betas = lambdas * ratios.sum(axis=1)
        else:
            betas = np.zeros(num_components)
        total = float(betas.sum())
        if total <= 0.0:
            break
        new_lambdas = betas / total
        delta = float(np.max(np.abs(new_lambdas - lambdas)))
        lambdas = new_lambdas
        if delta < config.epsilon:
            break

    count("em.runs")
    count("em.iterations", iterations)
    observe("em.iterations", iterations)
    if traced:
        # Per-iteration log-likelihood deltas (capped) land on the
        # enclosing "shrinkage.em_run" span for convergence forensics.
        deltas = [
            round(ll_trail[i] - ll_trail[i - 1], 6)
            for i in range(1, len(ll_trail))
        ]
        annotate(
            em_iterations=iterations,
            log_likelihood=round(ll_trail[-1], 6) if ll_trail else None,
            ll_deltas=deltas[:40],
        )
    return lambdas.tolist()


def _run_em(
    db_probs: Mapping[str, float],
    component_probs: Sequence[Mapping[str, float]],
    uniform_probability: float,
    config: ShrinkageConfig,
    db_loo_probs: Mapping[str, float] | None = None,
) -> list[float]:
    """Figure 2: EM over components [C0, C1..Cm, D]; returns the lambdas.

    ``component_probs`` holds the category probability maps for C1..Cm;
    C0 is represented by ``uniform_probability`` and the database itself by
    ``db_probs``. The sums of the E step run over the words of the
    database's approximate summary, exactly as in the figure.

    ``db_loo_probs``, when given, replaces the database column *during EM*
    with leave-one-out estimates (each word's own observation removed).
    Without it, maximum likelihood degenerates: the database component is
    the empirical distribution of exactly the words being scored, so EM
    drifts to an all-database mixture. McCallum et al. [22] — the source
    of the shrinkage technique — prescribe this correction; the final
    mixture still uses the unmodified database probabilities.

    Mapping-based convenience wrapper over :func:`_em_core`, kept for
    callers (and tests) that have plain dicts rather than summaries.
    """
    words = list(db_probs)
    num_components = len(component_probs) + 2  # C0 + categories + database
    if not words:
        return [1.0 / num_components] * num_components

    em_db_probs = db_loo_probs if db_loo_probs is not None else db_probs
    columns = np.empty((num_components, len(words)), dtype=np.float64)
    columns[0] = uniform_probability
    for j, probs in enumerate(component_probs, start=1):
        get = probs.get
        columns[j] = [get(word, 0.0) for word in words]
    get = em_db_probs.get
    columns[-1] = [get(word, 0.0) for word in words]
    return _em_core(columns, config)


def _gather(
    ids: np.ndarray, ref_ids: np.ndarray, ref_values: np.ndarray
) -> np.ndarray:
    """Values of sorted ``ref_ids``/``ref_values`` at ``ids``; missing → 0."""
    out = np.zeros(ids.size, dtype=np.float64)
    if ref_ids.size and ids.size:
        positions = np.minimum(
            np.searchsorted(ref_ids, ids), ref_ids.size - 1
        )
        hit = ref_ids[positions] == ids
        out[hit] = ref_values[positions[hit]]
    return out


def _loo_values(
    db_summary: ContentSummary,
    regime: str,
    values: np.ndarray,
    config: ShrinkageConfig,
) -> np.ndarray:
    """The database's EM column: leave-one-out when configured."""
    if config.loo_discount <= 0.0:
        return values
    if isinstance(db_summary, SampledSummary):
        return db_summary.leave_one_out_arrays(regime, config.loo_discount)
    if regime == "df":
        # No raw sample statistics: discount one document's worth of
        # evidence per word, the same correction at summary granularity.
        size = max(db_summary.size, 1.0)
        return np.maximum(values - config.loo_discount / size, 0.0)
    return values


def _db_regime(
    db_summary: ContentSummary,
    regime: str,
    vocab: Vocabulary,
    config: ShrinkageConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, probabilities, EM column) of the database in ``vocab``'s space.

    The EM column is computed against the summary's *own* array order
    (that is what :meth:`SampledSummary.leave_one_out_arrays` aligns to)
    and permuted together with the ids when a translation is needed.
    """
    own_ids, own_values = db_summary.regime_arrays(regime)
    em_values = _loo_values(db_summary, regime, own_values, config)
    if db_summary.vocab is vocab:
        return own_ids, own_values, em_values
    translated = vocab.intern_many(db_summary.vocab.words_of(own_ids))
    order = np.argsort(translated, kind="stable")
    return translated[order], own_values[order], em_values[order]


def _mix_arrays(
    regime: str,
    db_ids: np.ndarray,
    db_values: np.ndarray,
    components: Sequence[ContentSummary],
    uniform_probability: float,
    lambdas: Sequence[float],
) -> IdProbs:
    """Materialize pR(w|D) over the union of the component vocabularies."""
    ids = sorted_union(
        db_ids, *(summary.regime_arrays(regime)[0] for summary in components)
    )
    values = np.full(ids.size, lambdas[0] * uniform_probability)
    for j, summary in enumerate(components, start=1):
        values = values + lambdas[j] * summary.lookup_ids(ids, regime)
    values = values + lambdas[-1] * _gather(ids, db_ids, db_values)
    return ids, np.minimum(values, 1.0)


def em_input_digest(columns: np.ndarray, config: ShrinkageConfig) -> tuple:
    """A cache key identifying an EM problem exactly.

    :func:`_em_core` is a pure function of its column matrix and config,
    so two runs whose inputs digest identically produce bitwise-identical
    lambdas. The serving lifecycle keys a lambda cache on this to skip EM
    re-runs for databases whose mixture components survived an update
    unchanged (and for cancelling op sequences that restore them).
    """
    return (
        columns.shape,
        hashlib.blake2b(
            np.ascontiguousarray(columns).tobytes(), digest_size=16
        ).hexdigest(),
        config.epsilon,
        config.max_iterations,
    )


def shrink_database_summary(
    db_name: str,
    db_summary: ContentSummary,
    builder: CategorySummaryBuilder,
    config: ShrinkageConfig | None = None,
    em_cache: MutableMapping | None = None,
) -> ShrunkSummary:
    """Compute R(D) for one database (Definition 4 + Figure 2).

    EM is run independently for the document-frequency regime (used by
    bGlOSS/CORI) and the term-frequency regime (used by LM), per the
    adaptation note of Section 5.3. All arithmetic happens over the
    builder's shared vocabulary ids; the database summary is translated
    into that id space once per regime if it was built against a different
    vocabulary instance.

    ``em_cache``, when given, memoizes lambdas by an exact digest of the
    EM input columns (:func:`em_input_digest`); hits return the cached
    lambdas without iterating — bitwise what EM would recompute.
    """
    from repro.evaluation.instrument import count, span  # see _em_core note

    config = config or ShrinkageConfig()
    path_summaries = builder.exclusive_path_summaries(db_name)
    uniform_probability = builder.uniform_probability()
    vocab = builder.vocab
    components = [summary for _path, summary in path_summaries]

    component_names = ["Uniform"]
    component_names.extend(path[-1] for path, _summary in path_summaries)
    component_names.append(db_name)

    regimes: dict[str, tuple[list[float], IdProbs]] = {}
    for regime in ("df", "tf"):
        with span("shrinkage.em_run", db=db_name, regime=regime):
            ids, values, em_values = _db_regime(
                db_summary, regime, vocab, config
            )
            columns = np.empty(
                (len(components) + 2, ids.size), dtype=np.float64
            )
            columns[0] = uniform_probability
            for j, summary in enumerate(components, start=1):
                columns[j] = summary.lookup_ids(ids, regime)
            columns[-1] = em_values
            lambdas = MISSING
            digest = None
            if em_cache is not None:
                digest = em_input_digest(columns, config)
                lambdas = em_cache.get(digest, MISSING)
                if lambdas is not MISSING:
                    count("em.cache_hit")
            if lambdas is MISSING:
                lambdas = _em_core(columns, config)
                if em_cache is not None:
                    em_cache[digest] = lambdas
        regimes[regime] = (
            lambdas,
            _mix_arrays(
                regime, ids, values, components, uniform_probability, lambdas
            ),
        )

    lambdas, df_probs = regimes["df"]
    tf_lambdas, tf_probs = regimes["tf"]
    return ShrunkSummary(
        size=db_summary.size,
        df_probs=df_probs,
        tf_probs=tf_probs,
        lambdas=lambdas,
        tf_lambdas=tf_lambdas,
        component_names=component_names,
        uniform_probability=uniform_probability,
        base=db_summary,
        vocab=vocab,
    )


def shrink_all_summaries(
    builder: CategorySummaryBuilder,
    summaries: Mapping[str, ContentSummary],
    config: ShrinkageConfig | None = None,
    em_cache: MutableMapping | None = None,
) -> dict[str, ShrunkSummary]:
    """R(D) for every database in ``summaries``."""
    return {
        name: shrink_database_summary(
            name, summary, builder, config, em_cache=em_cache
        )
        for name, summary in summaries.items()
    }
