"""The metasearcher front end: summaries in, database rankings out.

Ties the pieces of the pipeline together for one testbed "cell" (one
sampling method, one frequency-estimation setting):

* category summaries (Definition 3) via :class:`CategorySummaryBuilder`;
* shrunk summaries R(D) (Definition 4), computed lazily and cached;
* the three base scorers, with LM wired to the Root category's
  term-frequency summary as its "global" model;
* the four selection strategies compared in Section 6.2:

  - ``PLAIN``        — base algorithm over the unshrunk summaries;
  - ``SHRINKAGE``    — the paper's adaptive algorithm (Figure 3);
  - ``UNIVERSAL``    — always use R(D) (the ablation of Section 6.2);
  - ``HIERARCHICAL`` — the category-descent strategy of [17].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveConfig, AdaptiveDecision, ScoreDistributionModel
from repro.core.category import CategorySummaryBuilder
from repro.core.lru import LruCache
from repro.core.shrinkage import ShrinkageConfig, ShrunkSummary, shrink_all_summaries
from repro.corpus.hierarchy import Hierarchy
from repro.selection.base import DatabaseScorer, RankedDatabase
# Importable from here so a tracer can wrap this name and count any
# serial fallback; ranking never calls it (the oracle imports it from
# repro.selection.base).
from repro.selection.base import rank_databases  # noqa: F401
from repro.selection.batch import (
    AdaptiveBatchEngine,
    BatchSelectionEngine,
    SummarySetMatrix,
    group_labels,
)
from repro.selection.topk import MixedTopKEngine, TopKEngine, TopKStats
from repro.selection.bgloss import BGlossScorer
from repro.selection.cori import CoriScorer
from repro.selection.hierarchical import HierarchicalSelector
from repro.selection.lm import LanguageModelScorer
from repro.summaries.summary import SampledSummary, rehome_summary


class SelectionDeadlineExceeded(RuntimeError):
    """A deadline-bounded selection ran out of time mid-computation.

    Raised between per-database steps of the adaptive strategy (the only
    per-query phase with meaningful compute); the serving layer catches it
    and degrades to plain sampled-summary scoring.
    """


class SelectionStrategy(str, Enum):
    """The selection strategies compared in the paper's Section 6.2."""

    PLAIN = "plain"
    SHRINKAGE = "shrinkage"
    UNIVERSAL = "universal"
    HIERARCHICAL = "hierarchical"


@dataclass
class SelectionOutcome:
    """Result of one database-selection run."""

    #: Selected databases, best first (may be fewer than k — Section 6.2's
    #: default-score rule).
    names: list[str]
    #: Scores by database name (empty for the hierarchical strategy, whose
    #: ordering is positional).
    scores: dict[str, float] = field(default_factory=dict)
    #: Per-database adaptive decisions (SHRINKAGE strategy only).
    decisions: dict[str, AdaptiveDecision] | None = None
    #: How many candidate rows the pruned top-k engine scored exactly
    #: (``None`` when the query ran through a full scan).
    candidates_scored: int | None = None

    @property
    def shrinkage_applications(self) -> int:
        """How many databases were scored with their shrunk summary."""
        if self.decisions is None:
            return 0
        return sum(1 for d in self.decisions.values() if d.use_shrinkage)

    def ranking_entries(self, limit: int | None = None) -> list[dict]:
        """The ranking a served answer carries: ``(-score, name)`` order,
        at most ``limit`` entries, each flagged ``selected`` when it is
        one of :attr:`names`. A pruned outcome already holds only its
        top-k pool; the cap bounds an unpruned one."""
        ranking = sorted(self.scores.items(), key=lambda item: (-item[1], item[0]))
        if limit is not None:
            ranking = ranking[:limit]
        selected = set(self.names)
        return [
            {"name": name, "score": score, "selected": name in selected}
            for name, score in ranking
        ]


_ALGORITHMS = ("bgloss", "cori", "lm")

#: Bound on each database's per-(scorer, word) moment cache. The key
#: space includes out-of-vocabulary query words, so a long-running server
#: facing a distinct-query stream needs the bound; in batch evaluation
#: the workload's vocabulary rarely reaches it.
MOMENT_CACHE_SIZE = 8192


@dataclass(frozen=True)
class _Engines:
    """The scans one (algorithm, strategy) ranks through.

    ``scorer`` is prepared on the fixed set (plain, universal) — the
    adaptive decisions of Figure 3 read the plain one — and unprepared
    for the mix, whose statistics follow each query's mask.
    """

    scorer: DatabaseScorer
    full: BatchSelectionEngine | AdaptiveBatchEngine
    pruned: TopKEngine | MixedTopKEngine

    def rank(
        self,
        query_terms: Sequence[str],
        k: int,
        prune: bool,
        mask: np.ndarray | None = None,
    ) -> tuple[list[RankedDatabase], TopKStats | None]:
        """(ranking, stats): pruned when it applies, else the full scan."""
        args = (query_terms,) if mask is None else (query_terms, mask)
        if prune:
            pruned = self.pruned.rank(*args, k)
            if pruned is not None:
                return pruned
        return self.full.rank(*args), None


class Metasearcher:
    """Database selection over one set of sampled summaries.

    Every summary is re-homed onto the cell vocabulary
    (``builder.vocab``) when it is installed, so the plain, universal and
    mixed sets always stack into score matrices; ranking never falls back
    to the serial :func:`~repro.selection.base.rank_databases`, which
    :mod:`repro.selection.oracle` checks every answer against. Each
    fixed-set scorer is prepared on the set it ranks.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        sampled_summaries: Mapping[str, SampledSummary],
        classifications: Mapping[str, tuple[str, ...]],
        shrinkage_config: ShrinkageConfig | None = None,
        adaptive_config: AdaptiveConfig | None = None,
        builder: CategorySummaryBuilder | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.classifications = dict(classifications)
        self.shrinkage_config = shrinkage_config or ShrinkageConfig()
        self.adaptive_config = adaptive_config or AdaptiveConfig()
        #: ``builder`` lets the serving lifecycle hand over an
        #: incrementally patched CategorySummaryBuilder instead of paying
        #: a from-scratch aggregation; it must describe exactly the given
        #: summaries/classifications.
        self.builder = builder or CategorySummaryBuilder(
            hierarchy, sampled_summaries, self.classifications
        )
        self.sampled_summaries = {
            name: rehome_summary(summary, self.builder.vocab)
            for name, summary in sampled_summaries.items()
        }
        self._shrunk: dict[str, ShrunkSummary] | None = None
        self._moment_caches: dict[str, LruCache] = {}
        #: One engine record per (algorithm, strategy), built on first use.
        self._engines: dict[tuple[str, str], _Engines] = {}
        #: One score matrix per summary *set* ("plain"/"shrunk"), shared
        #: by every algorithm's engines — matrices depend only on the
        #: summaries, so stacking them once per set instead of once per
        #: (algorithm, set) cuts snapshot memory by the algorithm count.
        self._set_matrices: dict[str, SummarySetMatrix] = {}
        self._hierarchical: dict[str, HierarchicalSelector] = {}

    def ensure_engines(self, roles: set[str] | None = None) -> None:
        """Construct engines (and their matrices) without issuing a query.

        Engine construction is cheap (scorer prepare, name sort, size
        stack); the matrices' column stores stay lazy. Callers that want
        to install external buffers (shared-memory views, see
        :mod:`repro.serving.shm`) call this first so the matrices exist
        to adopt into, *before* any select builds a store locally.

        ``roles`` — snapshot role keys (``set:plain``/``set:shrunk``) —
        limits construction to the sets a manifest actually carries:
        adopting a plain-only snapshot must not force the shrunk set into
        existence (that would run EM in every attaching worker). ``None``
        builds everything.
        """
        want_plain = roles is None or "set:plain" in roles
        want_shrunk = roles is None or "set:shrunk" in roles
        for algorithm in _ALGORITHMS:
            if want_plain:
                self._engines_for(algorithm, SelectionStrategy.PLAIN)
            if want_shrunk:
                self._engines_for(algorithm, SelectionStrategy.UNIVERSAL)
            if want_plain and want_shrunk:
                self._engines_for(algorithm, SelectionStrategy.SHRINKAGE)

    def engine_matrices(self) -> dict[str, SummarySetMatrix]:
        """Every live score matrix, keyed by its stable snapshot role.

        One key per summary set — ``set:plain`` / ``set:shrunk`` — the
        naming the shared-memory manifest uses, stable across processes
        because it derives only from summary-set identity, never from
        object ids.
        """
        return {
            f"set:{key}": matrix for key, matrix in self._set_matrices.items()
        }

    def engine_scorers(self) -> dict[tuple[str, str], DatabaseScorer]:
        """The scorer of every built engine, keyed (algorithm, strategy)."""
        return {key: engines.scorer for key, engines in self._engines.items()}

    @property
    def shrunk_summaries(self) -> dict[str, ShrunkSummary]:
        """R(D) for every database (computed once, then cached)."""
        if self._shrunk is None:
            self._shrunk = shrink_all_summaries(
                self.builder, self.sampled_summaries, self.shrinkage_config
            )
        return self._shrunk

    def has_shrunk_summaries(self) -> bool:
        """True once R(D) has been computed or installed."""
        return self._shrunk is not None

    def set_shrunk_summaries(
        self, shrunk: Mapping[str, ShrunkSummary]
    ) -> None:
        """Install precomputed R(D) (e.g. loaded from an artifact store).

        The mapping must cover every sampled database; insertion order is
        normalized to the sampled-summary order so downstream iteration is
        independent of where the shrunk summaries came from. Each R(D) is
        re-homed onto the cell vocabulary with its base pointing at the
        live sampled summary (a no-op for summaries already there), so the
        shrunk set stacks beside the sampled one and the lifecycle can
        prove R(D) reusable by identity.
        """
        missing = set(self.sampled_summaries) - set(shrunk)
        if missing:
            raise ValueError(
                f"shrunk summaries missing for {sorted(missing)[:5]!r}"
            )
        self._shrunk = {
            name: rehome_summary(shrunk[name], self.builder.vocab, base=sampled)
            for name, sampled in self.sampled_summaries.items()
        }
        # Anything prepared or stacked over the previous R(D) set is stale.
        self._engines = {
            key: engines
            for key, engines in self._engines.items()
            if key[1] == SelectionStrategy.PLAIN.value
        }
        self._set_matrices.pop("shrunk", None)

    def make_scorer(self, algorithm: str) -> DatabaseScorer:
        """A fresh scorer instance for ``algorithm`` (bgloss/cori/lm)."""
        algorithm = algorithm.lower()
        if algorithm == "bgloss":
            return BGlossScorer()
        if algorithm == "cori":
            return CoriScorer()
        if algorithm == "lm":
            root_summary = self.builder.category_summary(
                self.hierarchy.root.path
            )
            # The summary is handed over directly (not as a dict), keeping
            # the scorer's p(w|G) lookups columnar.
            return LanguageModelScorer(root_summary)
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {_ALGORITHMS}")

    # -- selection --------------------------------------------------------------

    def select(
        self,
        query_terms: Sequence[str],
        algorithm: str = "cori",
        strategy: SelectionStrategy | str = SelectionStrategy.SHRINKAGE,
        k: int = 10,
        deadline: float | None = None,
        prune: bool = False,
    ) -> SelectionOutcome:
        """Run one query through the chosen algorithm and strategy.

        ``deadline`` is an absolute ``time.monotonic()`` instant; when the
        adaptive strategy's per-database decision loop runs past it,
        :class:`SelectionDeadlineExceeded` is raised (other strategies are
        a single batched matrix pass and ignore the deadline).

        ``prune`` enables the bound-based exact top-k engine: the ranking
        it returns is bit-identical to the full scan truncated to ``k``
        (scores, floors, selected flags and ordering — see
        :mod:`repro.selection.topk`), but only a small candidate fraction
        is scored exactly. When pruning does not apply the full scan runs
        as before, so the flag is always safe to pass.
        """
        strategy = SelectionStrategy(strategy)

        if strategy is SelectionStrategy.HIERARCHICAL:
            selector = self._hierarchical_selector(algorithm)
            return SelectionOutcome(names=selector.select(query_terms, k))

        decisions = None
        mask = None
        if strategy is SelectionStrategy.SHRINKAGE:
            # The adaptive algorithm of Figure 3: decide S(D) or R(D) per
            # database with the plain set's statistics, then rank the mix.
            decision_scorer = self._engines_for(
                algorithm, SelectionStrategy.PLAIN
            ).scorer
            decisions = self._adaptive_decisions(
                decision_scorer,
                query_terms,
                self._batched_floors(decision_scorer, query_terms),
                deadline=deadline,
            )
            names = self._set_matrix("plain").names
            mask = np.array(
                [decisions[name].use_shrinkage for name in names], dtype=bool
            )
        ranking, stats = self._engines_for(algorithm, strategy).rank(
            query_terms, k, prune, mask
        )

        candidates_scored = None
        if stats is not None:
            from repro.evaluation.instrument import count, observe

            candidates_scored = stats.candidates_scored
            observe("select.candidates_scored", float(stats.candidates_scored))
            count("select.subtrees_pruned", stats.groups_pruned)
            count("select.rows_pruned", stats.rows_pruned)

        names = [entry.name for entry in ranking if entry.selected][:k]
        scores = {entry.name: entry.score for entry in ranking}
        return SelectionOutcome(
            names=names,
            scores=scores,
            decisions=decisions,
            candidates_scored=candidates_scored,
        )

    def _hierarchical_selector(self, algorithm: str) -> HierarchicalSelector:
        """One cached hierarchical selector per algorithm.

        Reuse keeps the selector's subtree row lists warm across queries;
        its database rankings run on the plain set's matrix.
        """
        key = algorithm.lower()
        selector = self._hierarchical.get(key)
        if selector is None:
            selector = HierarchicalSelector(
                self.make_scorer(algorithm),
                self.builder,
                self.sampled_summaries,
                matrix=self._set_matrix("plain"),
            )
            self._hierarchical[key] = selector
        return selector

    # -- engines -----------------------------------------------------------------

    def _set_matrix(self, key: str) -> SummarySetMatrix:
        """The one shared score matrix for a summary set ("plain"/"shrunk").

        Raises :class:`~repro.selection.batch.UnsupportedSummarySet` when
        the set cannot stack — never the case for summaries installed
        through this class, which re-homes them onto the cell vocabulary.
        """
        matrix = self._set_matrices.get(key)
        if matrix is None:
            from repro.evaluation.instrument import span

            summaries = (
                self.sampled_summaries
                if key == "plain"
                else self.shrunk_summaries
            )
            with span(
                "matrix.build", summary_set=key, databases=len(summaries)
            ):
                matrix = SummarySetMatrix(
                    summaries,
                    labels=group_labels(sorted(summaries), self.classifications),
                )
            self._set_matrices[key] = matrix
        return matrix

    def _engines_for(
        self, algorithm: str, strategy: SelectionStrategy
    ) -> _Engines:
        """The cached engine record of one (algorithm, strategy)."""
        key = (algorithm.lower(), strategy.value)
        engines = self._engines.get(key)
        if engines is None:
            from repro.evaluation.instrument import span

            with span(
                "engine.build",
                algorithm=key[0],
                summary_set=key[1],
                databases=len(self.sampled_summaries),
            ):
                engines = self._build_engines(*key)
            self._engines[key] = engines
        return engines

    def _build_engines(self, algorithm: str, strategy: str) -> _Engines:
        from repro.evaluation.instrument import span

        if strategy == SelectionStrategy.SHRINKAGE.value:
            plain = self._set_matrix("plain")
            shrunk = self._set_matrix("shrunk")
            scorer = self.make_scorer(algorithm)
            return _Engines(
                scorer,
                AdaptiveBatchEngine(scorer, plain, shrunk),
                MixedTopKEngine(scorer, plain, shrunk),
            )
        plain_set = strategy == SelectionStrategy.PLAIN.value
        matrix = self._set_matrix("plain" if plain_set else "shrunk")
        summaries = self.sampled_summaries if plain_set else self.shrunk_summaries
        scorer = self.make_scorer(algorithm)
        with span(
            "scorer.prepare",
            algorithm=algorithm,
            summary_set=strategy,
            databases=len(summaries),
        ):
            scorer.prepare(summaries)
        return _Engines(
            scorer,
            BatchSelectionEngine(scorer, matrix),
            TopKEngine(scorer, matrix),
        )

    def _batched_floors(
        self, scorer: DatabaseScorer, query_terms: Sequence[str]
    ) -> dict[str, float]:
        """Per-database floor scores in one batched pass."""
        matrix = self._set_matrix("plain")
        floors = scorer.floor_scores(query_terms, matrix.sizes)
        return dict(zip(matrix.names, floors.tolist()))

    def _adaptive_decisions(
        self,
        scorer: DatabaseScorer,
        query_terms: Sequence[str],
        floors: Mapping[str, float],
        deadline: float | None = None,
    ) -> dict[str, AdaptiveDecision]:
        """Content-summary-selection step of Figure 3 for every database.

        ``scorer`` must already be prepared on the unshrunk summaries: the
        uncertainty model scores hypothetical frequencies with the corpus
        statistics of the summaries actually observed. ``floors`` are the
        batched floor scores (bit-identical to the per-database
        ``floor_score``).
        """
        from repro.evaluation.instrument import count

        decisions: dict[str, AdaptiveDecision] = {}
        for name, sampled in self.sampled_summaries.items():
            if deadline is not None and time.monotonic() > deadline:
                raise SelectionDeadlineExceeded(
                    f"adaptive decisions for {len(self.sampled_summaries)} "
                    f"databases exceeded the deadline after {len(decisions)}"
                )
            cache = self._moment_caches.get(name)
            if cache is None:
                cache = self._moment_caches.setdefault(
                    name, LruCache(MOMENT_CACHE_SIZE)
                )
            model = ScoreDistributionModel(
                sampled, self.adaptive_config, moment_cache=cache
            )
            mean, std = model.score_moments(scorer, query_terms)
            floor = floors[name]
            decisions[name] = AdaptiveDecision(
                use_shrinkage=std > mean - floor, mean=mean, std=std, floor=floor
            )
        count("adaptive.decisions", len(decisions))
        count(
            "adaptive.use_shrinkage",
            sum(1 for d in decisions.values() if d.use_shrinkage),
        )
        return decisions

