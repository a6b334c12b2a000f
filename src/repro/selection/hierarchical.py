"""Hierarchical database selection — Ipeirotis & Gravano [17], Section 5.3.

This is the paper's main point of comparison ("QBS-Hierarchical" /
"FPS-Hierarchical"): instead of modifying database summaries, the strategy
aggregates unshrunk summaries into *category* summaries and lets a base
algorithm (bGlOSS/CORI/LM) pick the most promising category at each level,
descending until databases can be ranked directly.

The descent makes an irreversible choice per level: once a category is
entered, its databases are exhausted (best-first) before any sibling
category is considered — exactly the behaviour Section 6.2 identifies as
the strategy's weakness against flat, shrinkage-based ranking for queries
that cut across categories.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.category import CategorySummaryBuilder
from repro.selection.base import DatabaseScorer, rank_databases
from repro.selection.batch import BatchSelectionEngine, SummarySetMatrix
from repro.summaries.summary import ContentSummary, rehome_summary


class HierarchicalSelector:
    """Hierarchical selection over category summaries.

    Categories are ranked serially (a handful of category summaries per
    level); the databases under a category are ranked by the full-scan
    engine over ``matrix`` — the cell's plain score matrix, or one stacked
    here over the summaries re-homed onto the builder's vocabulary —
    restricted to that category's rows, with the scorer re-prepared on
    exactly those databases as the serial ranking would.
    """

    def __init__(
        self,
        scorer: DatabaseScorer,
        builder: CategorySummaryBuilder,
        summaries: Mapping[str, ContentSummary],
        matrix: SummarySetMatrix | None = None,
    ) -> None:
        self.scorer = scorer
        self.builder = builder
        self.summaries = dict(summaries)
        if matrix is None:
            matrix = SummarySetMatrix(
                {
                    name: rehome_summary(summary, builder.vocab)
                    for name, summary in self.summaries.items()
                }
            )
        self._engine = BatchSelectionEngine(scorer, matrix)
        self._row_of = {name: row for row, name in enumerate(matrix.names)}

    def select(self, query_terms: Sequence[str], k: int) -> list[str]:
        """Select up to ``k`` databases, best-category-first."""
        if k <= 0:
            return []
        return self._select_from(self.builder.hierarchy.root, query_terms, k)

    def _select_from(self, node, query_terms: Sequence[str], k: int) -> list[str]:
        """Recursive descent: best child first, exhausting each subtree."""
        children = [
            child
            for child in node.children
            if self.builder.databases_under(child.path)
        ]
        if not children:
            return self._rank_databases(
                self.builder.databases_under(node.path), query_terms, k
            )

        # Score the child categories as if they were databases, using their
        # Definition 3 category summaries.
        child_summaries = {
            "/".join(child.path): self.builder.category_summary(child.path)
            for child in children
        }
        ranking = rank_databases(self.scorer, query_terms, child_summaries)

        selected: list[str] = []
        for entry in ranking:
            if not entry.selected:
                continue  # category at its floor score: skip the subtree
            child = next(
                child
                for child in children
                if "/".join(child.path) == entry.name
            )
            remaining = k - len(selected)
            if remaining <= 0:
                break
            selected.extend(self._select_from(child, query_terms, remaining))

        # Databases classified exactly at this (internal) node compete last,
        # after every explored child subtree.
        if len(selected) < k:
            for name in self._rank_databases(
                self._direct_databases(node), query_terms, k
            ):
                if len(selected) >= k:
                    break
                if name not in selected:
                    selected.append(name)
        return selected[:k]

    def _rank_databases(
        self, names: Sequence[str], query_terms: Sequence[str], k: int
    ) -> list[str]:
        """The (at most ``k``) selected databases among ``names``."""
        if not names:
            return []
        # The scorer is shared across categories, so its corpus-level
        # statistics are re-prepared on exactly this database set — the
        # preparation rank_databases performs, keeping the two paths
        # bit-identical.
        self.scorer.prepare({name: self.summaries[name] for name in names})
        rows = np.array(sorted(self._row_of[name] for name in names))
        ranked = self._engine.rank(query_terms, rows)
        return [entry.name for entry in ranked if entry.selected][:k]

    def _direct_databases(self, node) -> list[str]:
        """Databases classified exactly at ``node`` (not under a child)."""
        under = set(self.builder.databases_under(node.path))
        for child in node.children:
            under -= set(self.builder.databases_under(child.path))
        return sorted(under)
