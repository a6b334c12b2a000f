"""Pruned exact top-k selection (DESIGN.md §5g).

Every ``/select`` needs only the best k databases, yet the full scan of
:mod:`repro.selection.batch` scores the whole universe per query. This
module adds a max-score/WAND-style candidate-elimination scan over the
same columnar matrices that returns the *first k entries of the full
ranking bit-for-bit* while touching — gathering and scoring — only a
fraction of the rows.

The machinery rests on three facts, proven per scorer in DESIGN.md §5g:

1. **Monotone bounds.** Each scorer's score is monotone nondecreasing
   in every per-word probability, and its kernel
   :meth:`~repro.selection.base.DatabaseScorer.row_scores` with
   ``upper=True`` folds per-word probability *maxima* through the
   scorer's own reduction. Because IEEE-754 round-to-nearest is monotone per
   operation, the folded bound dominates the exact score of every row it
   covers *as a float* (CORI's two-variable T ratio gets a 1e-9
   multiplicative guard).
2. **Exact floors.** A row whose probabilities are zero at every query
   word computes *exactly* the floor expression, and the bound fold
   reproduces that equality on all-zero maxima: a group whose column
   maxima vanish at the whole query is known — without gathering a
   single row — to score exactly the floor everywhere.
3. **Floor ties break on name.** Rows are in sorted-name order, the
   floor is one common scalar per (scorer, query), and the full ranking
   orders floor ties by name — so the k lowest *row indices* among the
   known-floor rows are the only floor rows that can appear in the top
   k.

Candidates are organized into *groups* — one per classification path, so
a pruned group is a pruned category subtree (see
:class:`~repro.selection.batch.GroupIndex`) — processed in descending
bound order. The current threshold θ is the k-th best *exactly scored*
value so far (or the floor, which every score dominates); a group whose
bound falls strictly below θ is eliminated whole, and surviving groups
are refined row-by-row against ``min(column_max, row_max)`` before the
expensive gather. While θ is still the floor, a group or row whose
bound *equals* the floor scores exactly the floor (bound ≥ score ≥
floor) and joins the known-floor pool of fact 3 without a gather.
Elimination only ever discards rows with ``score < θ ≤ true k-th
score``, so the surviving pool provably contains the full ranking's
first k entries, which are then assembled by the same ``(-score, name)``
sort as the full scan. When pruning cannot apply (an empty query, ``k``
covering the whole set, non-uniform floors) the engines return ``None``
and callers take the full scan.

Both scans run over the same row sources
(:class:`~repro.selection.batch.FixedSet` for a plain or universal set,
:class:`~repro.selection.batch.MixedSet` for the Figure-3 mix), and the
bounds are the scorer's own kernel evaluated at per-word maxima
(``row_scores(..., upper=True)``).
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.selection.base import DatabaseScorer, RankedDatabase
from repro.selection.batch import (
    FixedSet,
    MixedSet,
    SummarySetMatrix,
    check_mix,
    ranked_from_arrays,
)


@dataclass(frozen=True)
class TopKStats:
    """Per-query pruning accounting (feeds ``select.candidates_scored``)."""

    total: int
    candidates_scored: int
    groups_total: int
    groups_floor: int
    groups_pruned: int
    rows_pruned: int


def pruned_scan(
    scorer: DatabaseScorer,
    source: FixedSet | MixedSet,
    query_terms: Sequence[str],
    k: int,
) -> tuple[list[RankedDatabase], TopKStats] | None:
    """The first ``k`` entries of :func:`~repro.selection.batch.full_scan`
    bit for bit, scoring only rows whose bound can reach the k-th score;
    ``None`` when pruning does not apply. Exactness argument in the
    module docstring / DESIGN.md §5g."""
    from repro.evaluation.instrument import get_instrumentation

    terms = list(query_terms)
    total = len(source)
    if not terms or k is None or k <= 0 or k >= total:
        return None
    start = time.perf_counter()
    sizes = source.sizes
    floors = scorer.floor_scores(terms, sizes)
    if float(floors.min()) != float(floors.max()):
        return None
    floor = float(floors[0])
    regime = scorer.regime
    ids = source.query_ids(terms)
    statistics = source.statistics(scorer, terms)
    cw = group_cw = None
    if statistics is not None:
        cw = source.cw()
        group_cw = source.group_cw_min()

    def bounds(pmax, size_ub, cw_lb):
        return scorer.row_scores(terms, pmax, size_ub, cw_lb, statistics, upper=True)

    groups_rows = source.groups.rows
    group_bounds = bounds(
        source.group_pmax(ids, regime), source.groups.size_max(), group_cw
    )
    # Groups bounded by the floor (every all-zero group among them) score
    # exactly the floor everywhere: known without touching a row.
    at_floor = group_bounds == floor
    known_floor = [groups_rows[g] for g in np.flatnonzero(at_floor).tolist()]
    live = np.flatnonzero(~at_floor)
    order = live[np.argsort(-group_bounds[live], kind="stable")]
    colvec = source.column_max(ids, regime)
    rowmax = source.row_max(regime)

    # The query's columns for every row, gathered on the first group
    # that needs them. Local to this scan: a threaded server shares one
    # matrix across concurrent requests.
    block: np.ndarray | None = None
    scored_rows: list[np.ndarray] = []
    scored_scores: list[np.ndarray] = []
    top: list[float] = []  # min-heap of the k best exact scores so far
    theta = floor  # every score dominates the floor, so θ starts there
    candidates_scored = 0
    groups_pruned = 0
    rows_pruned = 0

    for position, group in enumerate(order.tolist()):
        if group_bounds[group] < theta:
            # Bounds are sorted descending: everything from here on is
            # strictly below the k-th best known score — whole category
            # subtrees eliminated without touching a row.
            remaining = order[position:]
            groups_pruned = int(remaining.size)
            rows_pruned += int(
                sum(groups_rows[g].size for g in remaining.tolist())
            )
            break
        rows = groups_rows[group]
        row_pmax = np.minimum(colvec[None, :], rowmax[rows][:, None])
        row_bounds = bounds(
            row_pmax, sizes[rows], None if cw is None else cw[rows]
        )
        if theta == floor:
            keep = row_bounds > floor
            known_floor.append(rows[~keep])
        else:
            keep = row_bounds >= theta
            rows_pruned += int((~keep).sum())
        kept = rows[keep]
        if kept.size == 0:
            continue
        if block is None:
            block = source.gather(ids, regime)
        scores = scorer.row_scores(
            terms,
            block[kept],
            sizes[kept],
            None if cw is None else cw[kept],
            statistics,
        )
        candidates_scored += int(kept.size)
        scored_rows.append(kept)
        scored_scores.append(scores)
        for score in scores.tolist():
            if len(top) < k:
                heapq.heappush(top, score)
            elif score > top[0]:
                heapq.heapreplace(top, score)
        if len(top) == k:
            theta = top[0]

    # Known-floor rows score exactly the floor, and floor ties order by
    # name == row index, so only the k smallest row indices can reach the
    # top k.
    floor_rows = (
        np.concatenate(known_floor) if known_floor
        else np.empty(0, dtype=np.int64)
    )
    fill = (
        np.partition(floor_rows, k - 1)[:k] if floor_rows.size > k else floor_rows
    )
    pool_rows = np.concatenate(scored_rows + [fill])
    pool_scores = np.concatenate(scored_scores + [floors[fill]])
    pool_names = [source.names[row] for row in pool_rows.tolist()]
    ranking = ranked_from_arrays(
        pool_names, pool_scores, floors[pool_rows], k=k
    )
    stats = TopKStats(
        total=total,
        candidates_scored=candidates_scored,
        groups_total=len(groups_rows),
        groups_floor=int(at_floor.sum()),
        groups_pruned=groups_pruned,
        rows_pruned=rows_pruned,
    )
    get_instrumentation().observe(
        f"rank.seconds.{scorer.name}", time.perf_counter() - start
    )
    return ranking, stats


class TopKEngine:
    """Pruned exact top-k over one fixed summary set: ``rank`` returns
    ``(ranking, stats)`` with ``ranking`` bit-identical to
    ``BatchSelectionEngine.rank(query)[:k]``, or ``None`` (full scan)."""

    def __init__(self, scorer: DatabaseScorer, matrix: SummarySetMatrix) -> None:
        self.scorer = scorer
        self.matrix = matrix

    def rank(
        self, query_terms: Sequence[str], k: int
    ) -> tuple[list[RankedDatabase], TopKStats] | None:
        return pruned_scan(self.scorer, FixedSet(self.matrix), query_terms, k)


class MixedTopKEngine:
    """Pruned exact top-k over the per-query plain/shrunk mix."""

    def __init__(
        self,
        scorer: DatabaseScorer,
        plain: SummarySetMatrix,
        shrunk: SummarySetMatrix,
    ) -> None:
        check_mix(plain, shrunk)
        self.scorer = scorer
        self.plain = plain
        self.shrunk = shrunk

    def rank(
        self, query_terms: Sequence[str], mask: np.ndarray, k: int
    ) -> tuple[list[RankedDatabase], TopKStats] | None:
        return pruned_scan(
            self.scorer, MixedSet(self.plain, self.shrunk, mask), query_terms, k
        )
