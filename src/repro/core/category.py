"""Category content summaries (Definition 3).

The approximate content summary of a category ``C`` aggregates the
summaries of the databases classified under ``C`` (at ``C`` itself or any
descendant), weighting each database by its (estimated) size:

    p(w|C) = sum_{D in db(C)} p(w|D) * |D|  /  sum_{D in db(C)} |D|     (Eq. 1)

Definition 4's note additionally requires that, when shrinking a database
``D`` along its path ``C1..Cm``, the summary of ``C_i`` must *exclude* all
data already counted in ``C_{i+1}`` (and ``C_m`` must exclude ``D``
itself) so the mixture components are independent.

The builder works in the columnar representation: every database summary
is expressed over one shared :class:`~repro.core.vocab.Vocabulary` (the
summaries' own, when they already share an instance; a union vocabulary
otherwise), and each category subtree keeps *dense* per-id probability
sums. Aggregation is then one fancy-indexed array add per database, and
each exclusive summary is a single array subtraction instead of a
re-aggregation.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.vocab import Vocabulary
from repro.corpus.hierarchy import Hierarchy
from repro.summaries.summary import ContentSummary

#: Contributions at or below this threshold are dropped after exclusion —
#: they are floating-point residue of subtracting a component's own sums.
_EXCLUSION_EPSILON = 1e-12


def _padded(array: np.ndarray, width: int) -> np.ndarray:
    """``array`` zero-extended to ``width`` (aliased when already there).

    Aggregates built before a vocabulary grew keep their original width;
    the tail they lack is genuinely zero (interning is append-only, so a
    summary folded at width ``w`` cannot carry mass at ids ``>= w``).
    Zero-padding is therefore bit-identical to having built the aggregate
    at the wider width in the first place.
    """
    if array.size >= width:
        return array
    out = np.zeros(width, dtype=np.float64)
    out[: array.size] = array
    return out


def _inserted(mapping: dict, key, value, before=None) -> dict:
    """``mapping`` plus ``key: value``, placed just ahead of ``before``
    (at the end when ``before`` is ``None`` or absent)."""
    if before is None or before not in mapping:
        mapping[key] = value
        return mapping
    result = {}
    for existing, item in mapping.items():
        if existing == before:
            result[key] = value
        result[existing] = item
    return result


class _Aggregate:
    """Weighted dense sums of probabilities for one category subtree.

    ``total_weight`` normalizes the probability sums (database sizes under
    Equation 1, database counts under the footnote-5 alternative);
    ``total_size`` always tracks the summed database sizes, which is what
    a category's own |C| means to the selection algorithms.
    """

    __slots__ = (
        "vocab", "df_sums", "tf_sums", "total_weight", "total_size",
        "database_names",
    )

    def __init__(self, vocab: Vocabulary, vocab_size: int) -> None:
        self.vocab = vocab
        self.df_sums = np.zeros(vocab_size, dtype=np.float64)
        self.tf_sums = np.zeros(vocab_size, dtype=np.float64)
        self.total_weight = 0.0
        self.total_size = 0.0
        self.database_names: list[str] = []

    def add_summary_arrays(
        self,
        name: str,
        size: float,
        weight: float,
        df: tuple[np.ndarray, np.ndarray],
        tf: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Fold one database's columnar regimes into the sums."""
        self.total_weight += weight
        self.total_size += size
        self.database_names.append(name)
        df_ids, df_values = df
        tf_ids, tf_values = tf
        self.df_sums[df_ids] += df_values * weight
        self.tf_sums[tf_ids] += tf_values * weight

    def add_aggregate(self, other: "_Aggregate") -> None:
        self.total_weight += other.total_weight
        self.total_size += other.total_size
        self.database_names.extend(other.database_names)
        if other.df_sums.size > self.df_sums.size:
            self.df_sums = _padded(self.df_sums, other.df_sums.size)
            self.tf_sums = _padded(self.tf_sums, other.tf_sums.size)
        if other.df_sums.size == self.df_sums.size:
            self.df_sums += other.df_sums
            self.tf_sums += other.tf_sums
        else:
            self.df_sums[: other.df_sums.size] += other.df_sums
            self.tf_sums[: other.tf_sums.size] += other.tf_sums

    def minus(self, other: "_Aggregate | None") -> "_Aggregate":
        """A new aggregate with ``other``'s contribution removed."""
        width = self.df_sums.size
        if other is not None:
            width = max(width, other.df_sums.size)
        result = _Aggregate(self.vocab, width)
        if other is None:
            result.df_sums = _padded(self.df_sums, width).copy()
            result.tf_sums = _padded(self.tf_sums, width).copy()
            result.total_weight = self.total_weight
            result.total_size = self.total_size
            result.database_names = list(self.database_names)
            return result
        removed = set(other.database_names)
        result.database_names = [
            name for name in self.database_names if name not in removed
        ]
        result.total_weight = max(self.total_weight - other.total_weight, 0.0)
        result.total_size = max(self.total_size - other.total_size, 0.0)
        df_remaining = _padded(self.df_sums, width) - _padded(
            other.df_sums, width
        )
        tf_remaining = _padded(self.tf_sums, width) - _padded(
            other.tf_sums, width
        )
        result.df_sums = np.where(
            df_remaining > _EXCLUSION_EPSILON, df_remaining, 0.0
        )
        result.tf_sums = np.where(
            tf_remaining > _EXCLUSION_EPSILON, tf_remaining, 0.0
        )
        return result

    def same_as(self, other: "_Aggregate") -> bool:
        """Bitwise equality (width-tolerant; missing tails are zero)."""
        width = max(self.df_sums.size, other.df_sums.size)
        return (
            self.total_weight == other.total_weight
            and self.total_size == other.total_size
            and self.database_names == other.database_names
            and np.array_equal(
                _padded(self.df_sums, width), _padded(other.df_sums, width)
            )
            and np.array_equal(
                _padded(self.tf_sums, width), _padded(other.tf_sums, width)
            )
        )

    def to_summary(self) -> ContentSummary:
        if self.total_weight <= 0:
            return ContentSummary(0.0, {}, {}, vocab=self.vocab)
        df_ids = np.flatnonzero(self.df_sums > 0.0)
        tf_ids = np.flatnonzero(self.tf_sums > 0.0)
        df_values = np.minimum(self.df_sums[df_ids] / self.total_weight, 1.0)
        tf_values = self.tf_sums[tf_ids] / self.total_weight
        return ContentSummary(
            self.total_size,
            (df_ids, df_values),
            (tf_ids, tf_values),
            vocab=self.vocab,
        )


class CategorySummaryBuilder:
    """Builds (plain and exclusive) category summaries for one testbed cell.

    Parameters
    ----------
    hierarchy:
        The classification scheme.
    summaries:
        Approximate content summary of every database, by name.
    classifications:
        Category path of every database, by name (from a directory or from
        query probing). Databases may be classified at internal nodes.
    weighting:
        ``"size"`` — Equation 1, each database weighted by its estimated
        size (the paper's default); ``"uniform"`` — the footnote-5
        alternative that weights every database equally (the paper found
        the two "virtually identical"; the ablation benchmark checks it).
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        summaries: Mapping[str, ContentSummary],
        classifications: Mapping[str, tuple[str, ...]],
        weighting: str = "size",
    ) -> None:
        if weighting not in ("size", "uniform"):
            raise ValueError("weighting must be 'size' or 'uniform'")
        self.weighting = weighting
        self.hierarchy = hierarchy
        self._summaries = dict(summaries)
        self._classifications = {
            name: tuple(path) for name, path in classifications.items()
        }
        missing = set(self._classifications) - set(self._summaries)
        if missing:
            raise ValueError(f"classified databases without summaries: {missing}")
        for name, path in self._classifications.items():
            if path not in hierarchy:
                raise ValueError(f"{name!r} classified under unknown path {path}")
        self.vocab = self._shared_vocabulary()
        self._regimes = self._translate_summaries()
        self._aggregates = self._build_aggregates()
        self._summary_cache: dict[tuple[str, ...], ContentSummary] = {}

    def _shared_vocabulary(self) -> Vocabulary:
        """The summaries' common vocabulary, or a fresh union of them all."""
        vocabs = {id(s.vocab): s.vocab for s in self._summaries.values()}
        if len(vocabs) == 1:
            return next(iter(vocabs.values()))
        return Vocabulary()

    def _translate_summaries(self) -> dict[str, tuple]:
        """Every classified summary's regimes in the builder's id space.

        When the summaries already share the builder vocabulary this is
        pure aliasing; otherwise each summary's words are interned once
        here — the only per-word Python loop in the builder.
        """
        regimes: dict[str, tuple] = {}
        for name in self._classifications:
            summary = self._summaries[name]
            regimes[name] = (
                summary.regime_arrays("df", self.vocab),
                summary.regime_arrays("tf", self.vocab),
            )
        return regimes

    def _new_aggregate(self) -> _Aggregate:
        return _Aggregate(self.vocab, len(self.vocab))

    def _add_database(
        self, aggregate: _Aggregate, name: str
    ) -> None:
        summary = self._summaries[name]
        weight = summary.size if self.weighting == "size" else 1.0
        df, tf = self._regimes[name]
        aggregate.add_summary_arrays(name, summary.size, weight, df, tf)

    def _build_aggregates(self) -> dict[tuple[str, ...], _Aggregate]:
        """Per-category subtree aggregates, computed bottom-up.

        The per-path *direct* aggregates (databases classified exactly at
        a node, before the subtree fold) are kept on ``self._direct`` so
        the incremental mutation API can refold a single category path
        without touching the rest of the tree.
        """
        direct: dict[tuple[str, ...], _Aggregate] = {}
        for name, path in self._classifications.items():
            aggregate = direct.get(path)
            if aggregate is None:
                aggregate = direct[path] = self._new_aggregate()
            self._add_database(aggregate, name)
        self._direct = direct

        aggregates: dict[tuple[str, ...], _Aggregate] = {}

        def collect(node) -> _Aggregate:
            aggregate = self._new_aggregate()
            own = direct.get(node.path)
            if own is not None:
                aggregate.add_aggregate(own)
            for child in node.children:
                aggregate.add_aggregate(collect(child))
            aggregates[node.path] = aggregate
            return aggregate

        collect(self.hierarchy.root)
        return aggregates

    # -- public API -----------------------------------------------------------

    def classification(self, db_name: str) -> tuple[str, ...]:
        """The category path ``db_name`` is classified under."""
        return self._classifications[db_name]

    def database_summaries(self) -> dict[str, ContentSummary]:
        """Classified database summaries, in canonical fold order.

        The returned dict iterates in classification insertion order — the
        order :meth:`_build_aggregates` (and :meth:`_patch_path`) folds
        floats in, so handing it to a fresh builder reproduces this
        builder's aggregates bitwise.
        """
        return {name: self._summaries[name] for name in self._classifications}

    def database_classifications(self) -> dict[str, tuple[str, ...]]:
        """Category path of every classified database (insertion order)."""
        return dict(self._classifications)

    def databases_under(self, path: tuple[str, ...]) -> list[str]:
        """db(C): names of databases classified at ``path`` or below."""
        return list(self._aggregates[tuple(path)].database_names)

    def category_summary(self, path: tuple[str, ...]) -> ContentSummary:
        """The (inclusive) Definition 3 summary of the category at ``path``."""
        path = tuple(path)
        if path not in self._summary_cache:
            self._summary_cache[path] = self._aggregates[path].to_summary()
        return self._summary_cache[path]

    def exclusive_path_summaries(
        self, db_name: str
    ) -> list[tuple[tuple[str, ...], ContentSummary]]:
        """(path, summary) for C1..Cm on ``db_name``'s path, with exclusion.

        Per the note under Definition 4: the mixture components must be
        independent, so each ancestor's summary has the data of the next
        component on the path subtracted before shrinkage — the child
        category's aggregate for C1..C_{m-1}, and the database itself for
        ``C_m`` (the database is the (m+1)-th mixture component). Order is
        root-first, the C1..Cm order of Definition 4.
        """
        path = self._classifications[db_name]
        chain = self.hierarchy.path_to_root(path)
        result: list[tuple[tuple[str, ...], ContentSummary]] = []
        for i, node in enumerate(chain):
            aggregate = self._aggregates[node.path]
            if i + 1 < len(chain):
                child_aggregate = self._aggregates[chain[i + 1].path]
                exclusive = aggregate.minus(child_aggregate)
            else:
                own = self._new_aggregate()
                if db_name in self._summaries and db_name in self._regimes:
                    self._add_database(own, db_name)
                exclusive = aggregate.minus(own)
            result.append((node.path, exclusive.to_summary()))
        return result

    def global_ids(self) -> np.ndarray:
        """Vocabulary ids with mass anywhere (the C0 support), sorted."""
        return np.flatnonzero(
            self._aggregates[self.hierarchy.root.path].df_sums > 0.0
        )

    def global_vocabulary(self) -> set[str]:
        """All words across all database summaries (the C0 support)."""
        return set(self.vocab.words_of(self.global_ids()))

    def uniform_probability(self) -> float:
        """p(w|C0) of the dummy uniform category: 1 / |global vocabulary|."""
        vocabulary_size = int(self.global_ids().size)
        return 1.0 / vocabulary_size if vocabulary_size else 0.0

    # -- incremental mutation (copy-on-write lifecycle) -----------------------

    def copy_for_update(self) -> "CategorySummaryBuilder":
        """A mutable clone sharing this builder's immutable pieces.

        The clone shares the :class:`Vocabulary` instance, every
        :class:`_Aggregate`, and every cached category summary by
        reference; the dicts holding them are shallow-copied. The mutation
        methods below replace entries in the clone's dicts rather than
        mutating shared objects, so the original builder — and any
        snapshot still serving from it — is never perturbed.
        """
        clone = type(self).__new__(type(self))
        clone.weighting = self.weighting
        clone.hierarchy = self.hierarchy
        clone._summaries = dict(self._summaries)
        clone._classifications = dict(self._classifications)
        clone.vocab = self.vocab
        clone._regimes = dict(self._regimes)
        clone._direct = dict(self._direct)
        clone._aggregates = dict(self._aggregates)
        clone._summary_cache = dict(self._summary_cache)
        return clone

    def add_database(
        self,
        name: str,
        summary: ContentSummary,
        path: tuple[str, ...],
        before: str | None = None,
    ) -> set[tuple[str, ...]]:
        """Classify a new database and patch its category path.

        ``summary`` must already live in this builder's vocabulary
        instance (re-home it first — see the serving lifecycle); a foreign
        vocabulary would make a later from-scratch rebuild intern a
        different id order and break the bit-identity contract. The
        database joins the fold order at the end, or just ahead of the
        database ``before`` (a restore puts it back where it was, so every
        aggregate refolds to its old bits). Returns the set of category
        paths whose aggregate actually changed.
        """
        if name in self._classifications:
            raise ValueError(f"database {name!r} is already classified")
        if summary.vocab is not self.vocab:
            raise ValueError(
                f"summary for {name!r} must share the builder vocabulary "
                "(re-home it before adding)"
            )
        path = tuple(path)
        if path not in self.hierarchy:
            raise ValueError(f"{name!r} classified under unknown path {path}")
        self._summaries = _inserted(self._summaries, name, summary, before)
        self._classifications = _inserted(
            self._classifications, name, path, before
        )
        self._regimes[name] = (
            summary.regime_arrays("df"),
            summary.regime_arrays("tf"),
        )
        return self._patch_path(path)

    def remove_database(self, name: str) -> set[tuple[str, ...]]:
        """Drop a database and patch its category path."""
        if name not in self._classifications:
            raise ValueError(f"unknown database {name!r}")
        path = self._classifications.pop(name)
        del self._summaries[name]
        del self._regimes[name]
        return self._patch_path(path)

    def replace_database(
        self, name: str, summary: ContentSummary
    ) -> set[tuple[str, ...]]:
        """Swap a database's summary in place (same classification)."""
        if name not in self._classifications:
            raise ValueError(f"unknown database {name!r}")
        if summary.vocab is not self.vocab:
            raise ValueError(
                f"summary for {name!r} must share the builder vocabulary "
                "(re-home it before replacing)"
            )
        self._summaries[name] = summary
        self._regimes[name] = (
            summary.regime_arrays("df"),
            summary.regime_arrays("tf"),
        )
        return self._patch_path(self._classifications[name])

    def _patch_path(self, path: tuple[str, ...]) -> set[tuple[str, ...]]:
        """Refold the direct aggregate at ``path`` and its ancestor chain.

        Bit-identity contract: the refolds replay exactly the fold order
        of :meth:`_build_aggregates` on the *final* state — the direct
        aggregate over members in classification insertion order, then
        each chain node as own-direct plus children in child order —
        while reusing the untouched sibling subtree aggregates, which are
        bitwise what a from-scratch rebuild would recompute. Returns the
        chain paths whose aggregate changed bitwise; unchanged nodes keep
        their previous aggregate object (and cached summary), so summary
        identity survives cancelling update sequences.
        """
        path = tuple(path)
        members = [
            name
            for name, classified in self._classifications.items()
            if classified == path
        ]
        if members:
            direct = self._new_aggregate()
            for name in members:
                self._add_database(direct, name)
            previous_direct = self._direct.get(path)
            if previous_direct is not None and direct.same_as(previous_direct):
                direct = previous_direct
            self._direct[path] = direct
        else:
            self._direct.pop(path, None)

        changed: set[tuple[str, ...]] = set()
        chain = self.hierarchy.path_to_root(path)
        for node in reversed(chain):
            aggregate = self._new_aggregate()
            own = self._direct.get(node.path)
            if own is not None:
                aggregate.add_aggregate(own)
            for child in node.children:
                aggregate.add_aggregate(self._aggregates[child.path])
            previous = self._aggregates[node.path]
            if aggregate.same_as(previous):
                continue
            self._aggregates[node.path] = aggregate
            self._summary_cache.pop(node.path, None)
            changed.add(node.path)
        return changed
