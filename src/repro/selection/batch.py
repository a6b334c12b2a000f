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


def _row_entries(
    summary: ContentSummary, regime: str, default: float
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (ids, values) one row stores; every other id reads the
    row's ``default``.

    A zero-default (plain) row stores its regime arrays as they are. A
    shrunk row stores its df-support ids at 0 — ids in the support but
    without regime mass score 0, not the floor (ShrunkSummary's support
    mask) — overwritten by its positive regime values.
    """
    ids, values = summary.regime_arrays(regime)
    if default == 0.0:
        return ids, values
    positive = values > 0.0
    support = summary.regime_arrays("df")[0]
    if ids is support:
        return ids, np.where(positive, values, 0.0)
    kept = ids[positive]
    # Sorted union of two sorted id arrays (sorting beats np.union1d's
    # hashing here by several times).
    merged = np.concatenate((support, kept))
    merged.sort()
    distinct = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
    entry_ids = merged[distinct]
    entries = np.zeros(entry_ids.size, dtype=np.float64)
    entries[np.searchsorted(entry_ids, kept)] = values[positive]
    return entry_ids, entries


_KNOWN_LOOKUPS = (
    ContentSummary.scored_lookup,
    ShrunkSummary.scored_lookup,
)

#: Fields of one regime's store, exported as ``<field>.<regime>``.
STORE_FIELDS = (
    "indptr", "rows", "values", "defaults", "rowmax", "colmax", "groupmax",
)


class ColumnStore:
    """One regime's entries in compressed-sparse-column form, plus bounds.

    Column ``v`` (a vocabulary id) holds ``rows[indptr[v]:indptr[v+1]]``
    (int32, ascending) with ``values`` at the same positions; a row
    without an entry at ``v`` reads its ``defaults`` value. ``rowmax``,
    ``colmax`` and ``groupmax`` are the exact per-row, per-id and
    per-(group, id) maxima of that implied matrix.
    """

    __slots__ = STORE_FIELDS

    def __init__(self, **arrays: np.ndarray) -> None:
        for field in STORE_FIELDS:
            setattr(self, field, arrays[field])


def _check_array(
    key: str, array: np.ndarray, dtype: type, shape: tuple | None = None
) -> None:
    """Raise ``ValueError`` unless ``array`` has ``dtype`` and ``shape``
    (any 1-D length when ``shape`` is None)."""
    if shape is None:
        fits = array.ndim == 1
    else:
        fits = array.shape == shape
    if array.dtype != dtype or not fits:
        raise ValueError(
            f"{key}: expected {np.dtype(dtype).name} "
            f"{'1-D' if shape is None else shape}, "
            f"got {array.dtype} {array.shape}"
        )


class SummarySetMatrix:
    """Sparse per-regime score stores for one fixed summary set.

    Rows follow sorted database-name order (the iteration order of
    :func:`~repro.selection.base.rank_databases`); columns are vocabulary
    ids, frozen at construction. Per regime the matrix keeps one
    :class:`ColumnStore` built row by row from the summaries' own arrays
    on first use. Each row reproduces the summary's ``scored_lookup``
    semantics exactly: plain summaries default missing ids to 0, shrunk
    summaries to their uniform-component floor, and ids inside the df
    support but without regime mass stay 0 (not floor) — mirroring
    :meth:`ShrunkSummary.scored_lookup`'s support mask.

    ``labels`` (one per row, in sorted-name order) partition the rows
    into the pruned scan's groups — category subtrees, see
    :func:`group_labels`; without them all rows form one group.
    """

    def __init__(
        self,
        summaries: Mapping[str, ContentSummary],
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
        self._stores: dict[str, ColumnStore] = {}
        self._present: np.ndarray | None = None
        self._cw: np.ndarray | None = None
        self._ids_cache = LruCache(_QUERY_IDS_CACHE_SIZE)
        self.groups = GroupIndex(
            self, labels if labels is not None else [()] * len(names)
        )

    def __len__(self) -> int:
        return len(self.names)

    # -- the column store -------------------------------------------------------

    def store(self, regime: str = "df") -> ColumnStore:
        """The regime's column store, built on first use."""
        store = self._stores.get(regime)
        if store is None:
            store = self._stores[regime] = self._build(regime)
        return store

    def _build(self, regime: str) -> ColumnStore:
        """Two passes over the rows: count each column's entries, then
        place every row's entries and fold its bounds. Besides the store
        and its bounds, nothing larger than one vocabulary-wide row is
        allocated."""
        n, width = len(self.summaries), self._width
        defaults = np.array(
            [_missing_probability(s, regime) for s in self.summaries],
            dtype=np.float64,
        )
        counts = np.zeros(width + 1, dtype=np.int64)
        for row, summary in enumerate(self.summaries):
            ids = _row_entries(summary, regime, defaults[row])[0]
            np.add.at(counts[1:], ids, 1)
        indptr = np.cumsum(counts, out=counts)
        rows = np.empty(int(indptr[-1]), dtype=np.int32)
        values = np.empty(int(indptr[-1]), dtype=np.float64)
        cursor = indptr[:-1].copy()

        group_of = np.empty(n, dtype=np.int64)
        for group, members in enumerate(self.groups.rows):
            group_of[members] = group
        groupmax = np.full((len(self.groups), width), -np.inf)
        line = np.empty(width, dtype=np.float64)  # one row, densified
        rowmax = defaults.copy()
        for row, summary in enumerate(self.summaries):
            default = defaults[row]
            ids, entries = _row_entries(summary, regime, default)
            slots = cursor[ids]
            rows[slots] = row
            values[slots] = entries
            slots += 1
            cursor[ids] = slots
            if entries.size:
                rowmax[row] = np.maximum(default, entries.max())
            line.fill(default)
            line[ids] = entries
            target = groupmax[group_of[row]]
            np.maximum(target, line, out=target)
        return ColumnStore(
            indptr=indptr,
            rows=rows,
            values=values,
            defaults=defaults,
            rowmax=rowmax,
            colmax=groupmax.max(axis=0),
            groupmax=groupmax,
        )

    # -- top-k pruning bounds --------------------------------------------------

    def column_max(self, regime: str = "df") -> np.ndarray:
        """Per-vocabulary-id maximum probability across all rows.

        The per-term column upper bound of the top-k engine: no database
        can contribute more than ``column_max()[id]`` at word ``id``.
        Exact maxima (no arithmetic), so a zero entry certifies that every
        database scores its floor component at that word.
        """
        return self.store(regime).colmax

    def row_max(self, regime: str = "df") -> np.ndarray:
        """Per-database maximum probability across the whole vocabulary.

        The global per-row residual bound: whatever the query, row ``i``
        never sees a per-word probability above ``row_max()[i]`` (the
        default is included, covering out-of-vocabulary lookups).
        """
        return self.store(regime).rowmax

    def default_max(self, regime: str = "df") -> float:
        """Upper bound on what any row returns for an unknown/invalid id."""
        defaults = self.store(regime).defaults
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

        Keys: ``<field>.<regime>`` for every :data:`STORE_FIELDS` field of
        each regime built so far, plus ``present`` and ``cw`` when those
        lazies have fired. Only what is already built is exported — a
        snapshot shares exactly the buffers its warmup traffic touched;
        anything else stays lazy (and is rebuilt locally, bit-identically,
        on demand by whoever adopts the export).
        """
        arrays: dict[str, np.ndarray] = {}
        for regime, store in self._stores.items():
            for field in STORE_FIELDS:
                arrays[f"{field}.{regime}"] = getattr(store, field)
        if self._present is not None:
            arrays["present"] = self._present
        if self._cw is not None:
            arrays["cw"] = self._cw
        return arrays

    def adopt_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Install externally materialized backing arrays (zero-copy).

        The inverse of :meth:`export_arrays`: the given buffers — e.g.
        numpy views over a shared-memory segment — pre-empt the local
        builds, so gathers, bounds, :meth:`present` and :meth:`cw` serve
        from them without allocating. Everything is checked against this
        matrix's geometry before anything is installed, and a malformed
        store fails closed with ``ValueError`` rather than mis-scoring:
        a regime must arrive with every :data:`STORE_FIELDS` field, its
        ``indptr`` must start at 0, never decrease and end at the entry
        count, row ids must be int32 within ``[0, databases)`` and
        parallel to float64 values.
        """
        n, width = len(self.summaries), self._width
        fields_by_regime: dict[str, dict[str, np.ndarray]] = {}
        present = cw = None
        for key, array in arrays.items():
            field, _, regime = key.partition(".")
            if field in STORE_FIELDS and regime:
                fields_by_regime.setdefault(regime, {})[field] = array
            elif key == "present":
                _check_array(key, array, np.bool_, (n, width))
                present = array
            elif key == "cw":
                _check_array(key, array, np.float64, (n,))
                cw = array
            else:
                raise ValueError(f"unknown matrix array field {key!r}")
        stores = {
            regime: self._checked_store(regime, fields)
            for regime, fields in fields_by_regime.items()
        }
        self._stores.update(stores)
        if present is not None:
            self._present = present
        if cw is not None:
            self._cw = cw

    def _checked_store(
        self, regime: str, fields: Mapping[str, np.ndarray]
    ) -> ColumnStore:
        n, width = len(self.summaries), self._width
        missing = [field for field in STORE_FIELDS if field not in fields]
        if missing:
            raise ValueError(
                f"store {regime!r} arrived without "
                + ", ".join(f"{field}.{regime}" for field in missing)
            )
        indptr, rows, values = (
            fields["indptr"], fields["rows"], fields["values"]
        )
        _check_array(f"indptr.{regime}", indptr, np.int64, (width + 1,))
        _check_array(f"rows.{regime}", rows, np.int32)
        _check_array(f"values.{regime}", values, np.float64)
        _check_array(f"defaults.{regime}", fields["defaults"], np.float64, (n,))
        _check_array(f"rowmax.{regime}", fields["rowmax"], np.float64, (n,))
        _check_array(f"colmax.{regime}", fields["colmax"], np.float64, (width,))
        _check_array(
            f"groupmax.{regime}", fields["groupmax"], np.float64,
            (len(self.groups), width),
        )
        if rows.size != values.size:
            raise ValueError(
                f"rows.{regime} holds {rows.size} ids but "
                f"values.{regime} {values.size} values"
            )
        if indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError(f"indptr.{regime} must start at 0 and never decrease")
        if indptr[-1] != rows.size:
            raise ValueError(
                f"indptr.{regime} ends at {int(indptr[-1])}, "
                f"not at the entry count {rows.size}"
            )
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= n):
            raise ValueError(f"rows.{regime} names a row outside [0, {n})")
        return ColumnStore(**{field: fields[field] for field in STORE_FIELDS})

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
        matrix whose row ``i`` equals ``summaries[i].scored_lookup(ids)``.

        The block starts as the row defaults; each in-range id's column
        entries are then scattered over it. It is filled one contiguous
        line per word and returned transposed: the kernels fold word by
        word, and elementwise arithmetic does not depend on memory layout.
        """
        store = self.store(regime)
        ids = np.asarray(ids, dtype=np.int64)
        lines = np.empty((ids.size, len(self.summaries)), dtype=np.float64)
        lines[:] = store.defaults
        for line, word in zip(lines, ids.tolist()):
            if 0 <= word < self._width:
                start, stop = store.indptr[word], store.indptr[word + 1]
                # An explicit intp copy of the int32 ids scatters faster
                # than numpy's implicit conversion.
                targets = store.rows[start:stop].astype(np.intp)
                line[targets] = store.values[start:stop]
        return lines.T

    def gather_rows(
        self, rows: np.ndarray, ids: np.ndarray, regime: str = "df"
    ) -> np.ndarray:
        """Row subset of :meth:`gather`: ``gather(ids, regime)[rows]``."""
        return self.gather(ids, regime)[np.asarray(rows, dtype=np.int64)]

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
    category subtrees). Each matrix owns one index (``matrix.groups``);
    its per-id column maxima are folded in the same row loop that builds
    the matrix's column store (and ride along in a shared-memory
    snapshot), while the default/size/cw aggregates are computed lazily
    when the pruned scan first needs them.
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
        self._defaults_max: dict[str, np.ndarray] = {}
        self._size_max: np.ndarray | None = None
        self._cw_min: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.labels)

    def colmax(self, regime: str) -> np.ndarray:
        """(groups, vocabulary) per-id maxima over each group's rows."""
        return self.matrix.store(regime).groupmax

    def defaults_max(self, regime: str) -> np.ndarray:
        """Per-group maximum default (bounds unknown/invalid-id lookups)."""
        if regime not in self._defaults_max:
            defaults = self.matrix.store(regime).defaults
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

    Corpus statistics come from the scorer's own ``prepare`` on the set.
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

    ``scorer`` must be prepared on exactly this set: its corpus
    statistics are part of the score.
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
