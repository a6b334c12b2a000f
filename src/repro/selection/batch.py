"""Batched all-databases scoring: score matrices and the full scan (DESIGN.md §5c).

Database selection is inherently a per-query, all-databases operation:
every query is scored against every candidate content summary before the
top-k databases are picked. :func:`repro.selection.base.rank_databases`
does that one database at a time; here the candidate set's columnar
arrays (one shared :class:`~repro.core.vocab.Vocabulary` per testbed
cell) are stacked into a :class:`SummarySetMatrix`, so one query scores
against all databases in a handful of numpy operations.

A scan runs over a *row source*: one matrix (:class:`FixedSet` — a
plain or universal set) or two plus a per-query mask (:class:`MixedSet`
— the Figure-3 mix of S(D) and R(D)). Each scorer has one kernel,
:meth:`~repro.selection.base.DatabaseScorer.row_scores`, from gathered
probabilities to scores; the set-level corpus statistics it reads
(CORI's I-values, cw and mcw) are an explicit input, taken from the
prepared scorer for a fixed set and recomputed from the mask for a mix.
:func:`full_scan` scores every row; the pruned top-k scan of
:mod:`repro.selection.topk` scores a few.

Bit-identity contract: the batched path must reproduce the serial fold
exactly. All three scorers reduce per-word components with sequential
folds (the strict ``score > floor`` selected-rule depends on exact
equality); the kernels keep that word-sequential order while vectorizing
across the *database* axis, and elementwise IEEE-754 arithmetic does not
depend on array shape, so every database's score comes out bit-for-bit
equal to :func:`~repro.selection.base.rank_databases`. The equivalence
suite (``tests/test_batch_equivalence.py``) enforces this with exact
``==`` comparisons for every scorer across plain, shrunk, and
adaptive-mixed summary sets.

A set whose summaries span several vocabulary instances, or whose
summary types have ``scored_lookup`` semantics the matrix does not know,
raises :class:`UnsupportedSummarySet` when its matrix is built; the
metasearcher re-homes every summary onto its cell vocabulary first, so
its sets always stack.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.lru import MISSING, LruCache
from repro.core.shrinkage import ShrunkSummary
from repro.selection.base import DatabaseScorer, RankedDatabase
from repro.summaries.summary import ContentSummary

#: Resolved query-id arrays cached per matrix (bounded for serve).
_QUERY_IDS_CACHE_SIZE = 512


class UnsupportedSummarySet(ValueError):
    """The summary set cannot be stacked into a score matrix."""


def _missing_probability(summary: ContentSummary, regime: str) -> float:
    """What ``scored_lookup`` returns for ids outside the summary entirely."""
    if isinstance(summary, ShrunkSummary):
        floor_lambda = (
            summary.lambdas[0] if regime == "df" else summary.tf_lambdas[0]
        )
        return floor_lambda * summary.uniform_probability
    return 0.0


_KNOWN_LOOKUPS = (
    ContentSummary.scored_lookup,
    ShrunkSummary.scored_lookup,
)


class SummarySetMatrix:
    """Stacked columnar probabilities for one fixed summary set.

    Rows follow sorted database-name order (the iteration order of
    :func:`~repro.selection.base.rank_databases`); columns are vocabulary
    ids, frozen at build time. Each row reproduces the summary's
    ``scored_lookup`` semantics exactly: plain summaries default missing
    ids to 0, shrunk summaries to their uniform-component floor, and ids
    inside the df support but without regime mass stay 0 (not floor) —
    mirroring :meth:`ShrunkSummary.scored_lookup`'s support mask.

    ``labels`` (one per row, in sorted-name order) partition the rows
    into the pruned scan's groups — category subtrees, see
    :func:`group_labels`; without them all rows form one group.
    """

    def __init__(
        self,
        summaries: Mapping[str, ContentSummary],
        previous: "SummarySetMatrix | None" = None,
        labels: Sequence[tuple[str, ...]] | None = None,
    ) -> None:
        if not summaries:
            raise UnsupportedSummarySet("empty summary set")
        names = sorted(summaries)
        ordered = [summaries[name] for name in names]
        vocabs = {id(s.vocab): s.vocab for s in ordered}
        if len(vocabs) != 1:
            raise UnsupportedSummarySet(
                "summary set spans multiple vocabulary instances"
            )
        for summary in ordered:
            if type(summary).scored_lookup not in _KNOWN_LOOKUPS:
                raise UnsupportedSummarySet(
                    f"{type(summary).__name__} overrides scored_lookup"
                )
        self.names: tuple[str, ...] = tuple(names)
        self.summaries: tuple[ContentSummary, ...] = tuple(ordered)
        # Rows in the mapping's own iteration order: the order a serial
        # ``prepare`` folds set-level totals in (CORI's mean cw).
        row_of = {name: row for row, name in enumerate(names)}
        self.fold_order = [row_of[name] for name in summaries]
        self.vocab = next(iter(vocabs.values()))
        self.sizes = np.array([s.size for s in ordered], dtype=np.float64)
        self._width = len(self.vocab)
        self._dense: dict[str, np.ndarray] = {}
        self._defaults: dict[str, np.ndarray] = {}
        self._colmax: dict[str, np.ndarray] = {}
        self._rowmax: dict[str, np.ndarray] = {}
        self._present: np.ndarray | None = None
        self._cw: np.ndarray | None = None
        self._ids_cache = LruCache(_QUERY_IDS_CACHE_SIZE)
        # Copy-on-write seed: rows whose summary *object* also appears in
        # ``previous`` are copied from its dense arrays instead of being
        # rebuilt (identical input object + identical per-row construction
        # => bitwise-identical row). Only matrices over the same
        # append-only vocabulary instance qualify; a narrower previous
        # matrix is fine, its missing tail is the row default.
        self._previous = (
            previous
            if previous is not None and previous.vocab is self.vocab
            else None
        )
        self.reused_rows = 0
        self.groups = GroupIndex(
            self, labels if labels is not None else [()] * len(names)
        )

    def __len__(self) -> int:
        return len(self.names)

    # -- dense construction ---------------------------------------------------

    def _previous_row(self, summary: ContentSummary) -> int | None:
        """The row of ``summary`` (by identity) in the previous matrix."""
        previous = self._previous
        if previous is None:
            return None
        row = getattr(previous, "_row_index", None)
        if row is None:
            row = previous._row_index = {
                id(s): index for index, s in enumerate(previous.summaries)
            }
        return row.get(id(summary))

    def _build_row(
        self, dense_row: np.ndarray, summary: ContentSummary, regime: str,
        default: float,
    ) -> None:
        if default != 0.0:
            dense_row.fill(default)
            # Ids in the df support but without regime mass score 0,
            # not the floor (ShrunkSummary's support mask).
            dense_row[summary.regime_arrays("df")[0]] = 0.0
        ids, values = summary.regime_arrays(regime)
        positive = values > 0.0
        if positive.all():
            dense_row[ids] = values
        else:
            dense_row[ids[positive]] = values[positive]
            if default == 0.0:
                dense_row[ids[~positive]] = values[~positive]

    def _build(self, regime: str) -> None:
        n = len(self.summaries)
        dense = np.zeros((n, self._width), dtype=np.float64)
        defaults = np.zeros(n, dtype=np.float64)
        previous = self._previous
        previous_dense = (
            previous._dense.get(regime) if previous is not None else None
        )
        for row, summary in enumerate(self.summaries):
            default = _missing_probability(summary, regime)
            defaults[row] = default
            if previous_dense is not None:
                source = self._previous_row(summary)
                if source is not None:
                    if default != 0.0 and previous._width < self._width:
                        dense[row, previous._width:] = default
                    dense[row, : previous._width] = previous_dense[source]
                    self.reused_rows += 1
                    continue
            self._build_row(dense[row], summary, regime, default)
        self._dense[regime] = dense
        self._defaults[regime] = defaults

    def dense(self, regime: str = "df") -> np.ndarray:
        """The (databases, vocabulary) score-matrix for ``regime``."""
        if regime not in self._dense:
            self._build(regime)
        return self._dense[regime]

    # -- top-k pruning bounds --------------------------------------------------

    def column_max(self, regime: str = "df") -> np.ndarray:
        """Per-vocabulary-id maximum probability across all rows.

        The per-term column upper bound of the top-k engine: no database
        can contribute more than ``column_max()[id]`` at word ``id``.
        Exact maxima (no arithmetic), so a zero entry certifies that every
        database scores its floor component at that word.
        """
        if regime not in self._colmax:
            self._colmax[regime] = self.dense(regime).max(axis=0)
        return self._colmax[regime]

    def row_max(self, regime: str = "df") -> np.ndarray:
        """Per-database maximum probability across the whole vocabulary.

        The global per-row residual bound: whatever the query, row ``i``
        never sees a per-word probability above ``row_max()[i]`` (the
        default is included, covering out-of-vocabulary lookups).
        """
        if regime not in self._rowmax:
            dense = self.dense(regime)
            self._rowmax[regime] = np.maximum(
                dense.max(axis=1), self._defaults[regime]
            )
        return self._rowmax[regime]

    def default_max(self, regime: str = "df") -> float:
        """Upper bound on what any row returns for an unknown/invalid id."""
        self.dense(regime)
        defaults = self._defaults[regime]
        return float(defaults.max()) if defaults.size else 0.0

    def column_max_at(self, ids: np.ndarray, regime: str = "df") -> np.ndarray:
        """:meth:`column_max` at the query's ids (defaults bound invalid ids)."""
        colmax = self.column_max(regime)
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < colmax.size)
        return np.where(
            valid, colmax[np.where(valid, ids, 0)], self.default_max(regime)
        )

    # -- external-buffer (de)materialization ----------------------------------

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Every *built* backing array, keyed by field name.

        Keys: ``dense.<regime>`` / ``defaults.<regime>`` for each regime
        densified so far, plus ``present`` and ``cw`` when those lazies
        have fired. Only what is already built is exported — a snapshot
        shares exactly the buffers its warmup traffic touched; anything
        else stays lazy (and is rebuilt locally, bit-identically, on
        demand by whoever adopts the export).
        """
        arrays: dict[str, np.ndarray] = {}
        for regime, dense in self._dense.items():
            arrays[f"dense.{regime}"] = dense
            arrays[f"defaults.{regime}"] = self._defaults[regime]
        for regime, colmax in self._colmax.items():
            arrays[f"colmax.{regime}"] = colmax
        for regime, rowmax in self._rowmax.items():
            arrays[f"rowmax.{regime}"] = rowmax
        if self._present is not None:
            arrays["present"] = self._present
        if self._cw is not None:
            arrays["cw"] = self._cw
        return arrays

    def adopt_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Install externally materialized backing arrays (zero-copy).

        The inverse of :meth:`export_arrays`: the given buffers — e.g.
        numpy views over a shared-memory segment — replace (or pre-empt)
        the locally densified ones, so :meth:`dense`, :meth:`present`,
        and :meth:`cw` serve from them without ever allocating. Shapes
        and dtypes are validated against this matrix's geometry; a
        mismatched buffer (wrong database count or a vocabulary that
        grew past the exporter's) raises ``ValueError`` rather than
        silently mis-scoring.
        """
        n = len(self.summaries)
        for key, array in arrays.items():
            field, _, regime = key.partition(".")
            if field == "dense":
                if array.shape != (n, self._width) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n, self._width)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._dense[regime] = array
            elif field == "defaults":
                if array.shape != (n,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._defaults[regime] = array
            elif field == "colmax":
                if array.shape != (self._width,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(self._width,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._colmax[regime] = array
            elif field == "rowmax":
                if array.shape != (n,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._rowmax[regime] = array
            elif field == "present":
                if array.shape != (n, self._width) or array.dtype != np.bool_:
                    raise ValueError(
                        f"{key}: expected bool {(n, self._width)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._present = array
            elif field == "cw":
                if array.shape != (n,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._cw = array
            else:
                raise ValueError(f"unknown matrix array field {key!r}")
        for regime in self._dense:
            if regime not in self._defaults:
                raise ValueError(
                    f"dense.{regime} adopted without defaults.{regime}"
                )

    # -- query resolution and gathering ---------------------------------------

    def query_ids(self, query_terms: Sequence[str]) -> np.ndarray:
        """Vocabulary ids of the query's words (−1 when unknown), cached."""
        key = tuple(query_terms)
        ids = self._ids_cache.get(key, MISSING)
        if ids is MISSING:
            ids = self.vocab.ids_of(key)
            self._ids_cache.put(key, ids)
        return ids

    def gather(self, ids: np.ndarray, regime: str = "df") -> np.ndarray:
        """Per-word probabilities for all databases: a (databases, words)
        matrix whose row ``i`` equals ``summaries[i].scored_lookup(ids)``."""
        dense = self.dense(regime)
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < self._width)
        if valid.all():
            return dense[:, ids]
        safe = np.where(valid, ids, 0)
        out = dense[:, safe]
        out[:, ~valid] = self._defaults[regime][:, None]
        return out

    def gather_rows(
        self, rows: np.ndarray, ids: np.ndarray, regime: str = "df"
    ) -> np.ndarray:
        """Row subset of :meth:`gather`: ``gather(ids, regime)[rows]``
        without materializing the full matrix (pure selection, bitwise
        identical to slicing the full gather)."""
        dense = self.dense(regime)
        rows = np.asarray(rows, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < self._width)
        safe = np.where(valid, ids, 0)
        out = dense[rows[:, None], safe[None, :]]
        if not valid.all():
            out[:, ~valid] = self._defaults[regime][rows][:, None]
        return out

    # -- CORI corpus statistics ------------------------------------------------

    def present(self) -> np.ndarray:
        """Boolean (databases, vocabulary) word-presence matrix for cf(w):
        the round rule's effective ids for shrunk summaries, the df support
        otherwise (mirrors ``cori._present_ids``)."""
        if self._present is None:
            present = np.zeros(
                (len(self.summaries), self._width), dtype=bool
            )
            for row, summary in enumerate(self.summaries):
                if isinstance(summary, ShrunkSummary):
                    ids = summary.effective_ids()
                else:
                    ids = summary.regime_arrays("df")[0]
                present[row, ids] = True
            self._present = present
        return self._present

    def present_at(self, ids: np.ndarray) -> np.ndarray:
        """Presence columns for ``ids`` (False for unknown/out-of-range)."""
        present = self.present()
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < self._width)
        safe = np.where(valid, ids, 0)
        out = present[:, safe]
        if not valid.all():
            out[:, ~valid] = False
        return out

    def cw(self) -> np.ndarray:
        """Per-database cw(D) proxy (df mass), CORI's collection size."""
        if self._cw is None:
            self._cw = np.array(
                [s.df_mass() for s in self.summaries], dtype=np.float64
            )
        return self._cw


def group_labels(
    names: Sequence[str], classifications: Mapping[str, Sequence[str]]
) -> list[tuple[str, ...]]:
    """One hashable group label per row: the classification path."""
    return [
        tuple(classifications.get(name) or ("__unclassified__",))
        for name in names
    ]


class GroupIndex:
    """Aggregated per-group bounds over one :class:`SummarySetMatrix`.

    Groups partition the rows by label (classification paths — i.e.
    category subtrees). Per regime the index keeps each group's per-id
    column maxima plus its default/size/cw aggregates, all lazy: nothing
    is computed until the pruned scan first needs it. The arrays are
    derived deterministically from the (possibly shared-memory) dense
    matrices, so attaching workers rebuild them locally bit-identically.
    """

    def __init__(
        self, matrix: SummarySetMatrix, labels: Sequence[tuple[str, ...]]
    ) -> None:
        if len(labels) != len(matrix.names):
            raise ValueError("one label per matrix row required")
        self.matrix = matrix
        by_label: dict[tuple[str, ...], list[int]] = {}
        for row, label in enumerate(labels):
            by_label.setdefault(label, []).append(row)
        self.labels: tuple[tuple[str, ...], ...] = tuple(sorted(by_label))
        self.rows: list[np.ndarray] = [
            np.array(by_label[label], dtype=np.int64) for label in self.labels
        ]
        self._colmax: dict[str, np.ndarray] = {}
        self._defaults_max: dict[str, np.ndarray] = {}
        self._size_max: np.ndarray | None = None
        self._cw_min: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.labels)

    def colmax(self, regime: str) -> np.ndarray:
        """(groups, vocabulary) per-id maxima over each group's rows."""
        if regime not in self._colmax:
            dense = self.matrix.dense(regime)
            self._colmax[regime] = np.stack(
                [dense[rows].max(axis=0) for rows in self.rows]
            )
        return self._colmax[regime]

    def defaults_max(self, regime: str) -> np.ndarray:
        """Per-group maximum default (bounds unknown/invalid-id lookups)."""
        if regime not in self._defaults_max:
            self.matrix.dense(regime)
            defaults = self.matrix._defaults[regime]
            self._defaults_max[regime] = np.array(
                [defaults[rows].max() for rows in self.rows],
                dtype=np.float64,
            )
        return self._defaults_max[regime]

    def colmax_at(self, ids: np.ndarray, regime: str) -> np.ndarray:
        """(groups, words) maxima for the query's ids."""
        colmax = self.colmax(regime)
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < colmax.shape[1])
        safe = np.where(valid, ids, 0)
        out = colmax[:, safe]
        if not valid.all():
            out[:, ~valid] = self.defaults_max(regime)[:, None]
        return out

    def size_max(self) -> np.ndarray:
        if self._size_max is None:
            sizes = self.matrix.sizes
            self._size_max = np.array(
                [sizes[rows].max() for rows in self.rows], dtype=np.float64
            )
        return self._size_max

    def cw_min(self) -> np.ndarray:
        if self._cw_min is None:
            cw = self.matrix.cw()
            self._cw_min = np.array(
                [cw[rows].min() for rows in self.rows], dtype=np.float64
            )
        return self._cw_min


def batch_floor_map(
    scorer: DatabaseScorer,
    query_terms: Sequence[str],
    summaries: Mapping[str, ContentSummary],
) -> dict[str, float] | None:
    """Floor scores for every database in one batched pass, or ``None``
    when the set does not stack (the caller falls back to per-database
    ``floor_score`` calls)."""
    try:
        matrix = SummarySetMatrix(summaries)
    except UnsupportedSummarySet:
        return None
    floors = scorer.floor_scores(query_terms, matrix.sizes)
    return dict(zip(matrix.names, floors.tolist()))


def ranked_from_arrays(
    names: Sequence[str],
    scores: np.ndarray,
    floors: np.ndarray,
    k: int | None = None,
) -> list[RankedDatabase]:
    """Assemble the final ranking exactly as ``rank_databases`` does:
    strict ``score > floor`` for the selected flag, ties broken on name.

    With ``k`` given, returns exactly the first ``k`` entries of the full
    ranking without sorting all candidates: an ``argpartition`` isolates
    the k largest scores, every row tied with the k-th score joins the
    pool (so the name tie-break sees all contenders), and only that pool
    is sorted. Bit-identical to ``ranked_from_arrays(...)[:k]``.
    """
    if k is not None and k < len(names):
        if k <= 0:
            return []
        kept = np.argpartition(-scores, k - 1)[:k]
        kth = scores[kept].min()
        candidates = np.flatnonzero(scores >= kth)
        ranking = [
            RankedDatabase(name=names[i], score=score, selected=score > floor)
            for i, score, floor in zip(
                candidates.tolist(),
                scores[candidates].tolist(),
                floors[candidates].tolist(),
            )
        ]
        ranking.sort(key=lambda entry: (-entry.score, entry.name))
        del ranking[k:]
        return ranking
    ranking = [
        RankedDatabase(name=name, score=score, selected=score > floor)
        for name, score, floor in zip(
            names, scores.tolist(), floors.tolist()
        )
    ]
    ranking.sort(key=lambda entry: (-entry.score, entry.name))
    return ranking


# -- row sources ---------------------------------------------------------------


class FixedSet:
    """One summary set's matrix as the rows of a scan (plain or universal).

    Corpus statistics come from the scorer's own ``prepare`` — which is
    how universe-wide statistics reach a cluster shard's rows.
    """

    def __init__(self, matrix: SummarySetMatrix) -> None:
        self.matrix = matrix
        self.names = matrix.names
        self.sizes = matrix.sizes
        self.groups = matrix.groups

    def __len__(self) -> int:
        return len(self.names)

    def query_ids(self, query_terms: Sequence[str]) -> np.ndarray:
        return self.matrix.query_ids(query_terms)

    def gather(
        self, ids: np.ndarray, regime: str, rows: np.ndarray | None = None
    ) -> np.ndarray:
        if rows is None:
            return self.matrix.gather(ids, regime)
        return self.matrix.gather_rows(rows, ids, regime)

    def cw(self) -> np.ndarray:
        return self.matrix.cw()

    def statistics(self, scorer: DatabaseScorer, query_terms: Sequence[str]):
        return scorer.statistics(query_terms)

    # -- pruning bounds --------------------------------------------------------

    def group_pmax(self, ids: np.ndarray, regime: str) -> np.ndarray:
        return self.groups.colmax_at(ids, regime)

    def group_cw_min(self) -> np.ndarray:
        return self.groups.cw_min()

    def column_max(self, ids: np.ndarray, regime: str) -> np.ndarray:
        return self.matrix.column_max_at(ids, regime)

    def row_max(self, regime: str) -> np.ndarray:
        return self.matrix.row_max(regime)


class MixedSet:
    """The per-query plain/shrunk row mix of Figure 3 as the rows of a scan.

    ``mask`` (aligned to the row order) picks the shrunk row per
    database. Set-level statistics (CORI's cf, mcw) are recomputed from
    the mask over precomputed presence matrices and cw vectors —
    bit-identical to a fresh ``prepare`` on the materialized mixed dict,
    including its insertion-order mean-cw fold. Bounds must hold for any
    mask, so per-word maxima take the elementwise max over both matrices
    and cw the min.
    """

    def __init__(
        self,
        plain: SummarySetMatrix,
        shrunk: SummarySetMatrix,
        mask: np.ndarray,
    ) -> None:
        self.plain = plain
        self.shrunk = shrunk
        self.mask = np.asarray(mask, dtype=bool)
        self.names = plain.names
        self.sizes = plain.sizes
        self.groups = plain.groups
        self._cw: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.names)

    def query_ids(self, query_terms: Sequence[str]) -> np.ndarray:
        return self.plain.query_ids(query_terms)

    def gather(
        self, ids: np.ndarray, regime: str, rows: np.ndarray | None = None
    ) -> np.ndarray:
        if rows is None:
            mask = self.mask
            plain = self.plain.gather(ids, regime)
            shrunk = self.shrunk.gather(ids, regime)
        else:
            mask = self.mask[rows]
            plain = self.plain.gather_rows(rows, ids, regime)
            shrunk = self.shrunk.gather_rows(rows, ids, regime)
        return np.where(mask[:, None], shrunk, plain)

    def cw(self) -> np.ndarray:
        """Per-database cw(D) of the chosen summaries."""
        if self._cw is None:
            self._cw = np.where(self.mask, self.shrunk.cw(), self.plain.cw())
        return self._cw

    def statistics(self, scorer: DatabaseScorer, query_terms: Sequence[str]):
        return scorer.statistics(query_terms, self)

    def mean_cw(self) -> float:
        """mcw over the mixed set, folded exactly like CORI's prepare."""
        cw = self.cw().tolist()
        total_cw = 0.0
        for row in self.plain.fold_order:
            total_cw += cw[row]
        count = len(self.names)
        mean = total_cw / count if count else 1.0
        return mean if mean > 0 else 1.0

    def cf_at(self, ids: np.ndarray) -> np.ndarray:
        """cf(w) for the query's ids over the chosen summaries."""
        chosen = np.where(
            self.mask[:, None],
            self.shrunk.present_at(ids),
            self.plain.present_at(ids),
        )
        return chosen.sum(axis=0, dtype=np.int64)

    # -- pruning bounds --------------------------------------------------------

    def group_pmax(self, ids: np.ndarray, regime: str) -> np.ndarray:
        return np.maximum(
            self.plain.groups.colmax_at(ids, regime),
            self.shrunk.groups.colmax_at(ids, regime),
        )

    def group_cw_min(self) -> np.ndarray:
        return np.minimum(
            self.plain.groups.cw_min(), self.shrunk.groups.cw_min()
        )

    def column_max(self, ids: np.ndarray, regime: str) -> np.ndarray:
        return np.maximum(
            self.plain.column_max_at(ids, regime),
            self.shrunk.column_max_at(ids, regime),
        )

    def row_max(self, regime: str) -> np.ndarray:
        return np.where(
            self.mask, self.shrunk.row_max(regime), self.plain.row_max(regime)
        )


def check_mix(plain: SummarySetMatrix, shrunk: SummarySetMatrix) -> None:
    """Raise :class:`UnsupportedSummarySet` unless ``shrunk`` can stand
    in for ``plain`` row by row (same databases, sizes, vocabulary and
    groups)."""
    if plain.names != shrunk.names:
        raise UnsupportedSummarySet(
            "sampled and shrunk sets name different databases"
        )
    if plain.vocab is not shrunk.vocab:
        raise UnsupportedSummarySet(
            "sampled and shrunk sets use different vocabularies"
        )
    if not np.array_equal(plain.sizes, shrunk.sizes):
        raise UnsupportedSummarySet("shrunk summaries changed database sizes")
    if plain.groups.labels != shrunk.groups.labels:
        raise UnsupportedSummarySet(
            "sampled and shrunk sets are grouped differently"
        )


def full_scan(
    scorer: DatabaseScorer,
    source: FixedSet | MixedSet,
    query_terms: Sequence[str],
    rows: np.ndarray | None = None,
) -> list[RankedDatabase]:
    """Score and rank every row of ``source`` (or just ``rows``) for one
    query, highest first — :func:`~repro.selection.base.rank_databases`
    bit for bit."""
    from repro.evaluation.instrument import get_instrumentation

    start = time.perf_counter()
    terms = list(query_terms)
    names, sizes = source.names, source.sizes
    statistics = source.statistics(scorer, terms)
    cw = None if statistics is None else source.cw()
    if rows is not None:
        names = [names[row] for row in rows.tolist()]
        sizes = sizes[rows]
        cw = None if cw is None else cw[rows]
    probabilities = source.gather(source.query_ids(terms), scorer.regime, rows)
    scores = scorer.row_scores(terms, probabilities, sizes, cw, statistics)
    ranking = ranked_from_arrays(names, scores, scorer.floor_scores(terms, sizes))
    get_instrumentation().observe(
        f"rank.seconds.{scorer.name}", time.perf_counter() - start
    )
    return ranking


class BatchSelectionEngine:
    """Full scan over one fixed summary set.

    ``scorer`` must be prepared on exactly this set (or, for a cluster
    shard, on the universe the set is a part of): its corpus statistics
    are part of the score.
    """

    def __init__(self, scorer: DatabaseScorer, matrix: SummarySetMatrix) -> None:
        self.scorer = scorer
        self.matrix = matrix
        self.names = matrix.names

    def rank(
        self, query_terms: Sequence[str], rows: np.ndarray | None = None
    ) -> list[RankedDatabase]:
        """Score and rank all databases (or just ``rows``), highest first."""
        return full_scan(self.scorer, FixedSet(self.matrix), query_terms, rows)


class AdaptiveBatchEngine:
    """Full scan over the per-query plain/shrunk mix of Figure 3."""

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
        self.names = plain.names

    def rank(
        self, query_terms: Sequence[str], mask: np.ndarray
    ) -> list[RankedDatabase]:
        """Rank the mixed set selected by ``mask`` for one query."""
        return full_scan(
            self.scorer, MixedSet(self.plain, self.shrunk, mask), query_terms
        )
