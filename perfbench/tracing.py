"""Spans and counts recorded by the benchmark's own wrappers.

The traced run wraps the program's entry points named in ``instrument``;
the program's code is not changed. Each wrapper records a
span -- id, name, start, end, parent span, request id -- at the layer
boundary, and counts at the same boundary are attributed to the request
(the outermost span of the calling thread). Spans stay in memory; a
server process writes them out when it exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# Span names, keyed by the layer each one times.
SELECT = "service.select"
METASEARCH = "metasearcher.select"
MOMENTS = "adaptive.moments"
DECIDE = "adaptive.decide"
FLOORS = "selection.floors"
RANK = "selection.rank"
SERIAL_RANK = "selection.serial_rank"
TOPK = "selection.topk"
STORE_LOAD = "store.load"
GET_CELL = "harness.get_cell"
ENSURE_SHRUNK = "harness.ensure_shrunk"
SYNTHESIZE = "corpus.synthesize"
WARMUP = "service.warmup"
WARM = "service.warm"
WORKERS_START = "workers.start"
POOL_UPDATE = "workers.apply_update"
UPDATER_APPLY = "lifecycle.apply"
PACK = "shm.pack"
FLIP = "workers.flip"


class Tracer:
    """In-memory span and count recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []

    def forget(self) -> None:
        """Drop everything recorded so far (a forked child's inheritance)."""
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        stack = self._stack()
        self.counts[(name, stack[0][0] if stack else 0)] += value

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = owner.__dict__[attr]
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [next(tracer._ids), name, 0.0, 0.0, stack[-1][0] if stack else 0, None]
            stack.append(record)
            record[2] = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                stack.pop()
                tracer.spans.append(record)
            if on_result is not None:
                on_result(record, result)
            return result

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._installed.append((owner, attr, original))

    def count_calls(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def dump(self, path: Path) -> None:
        payload = {
            "spans": self.spans,
            "counts": [[name, root, value] for (name, root), value in self.counts.items()],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every traced entry point of the program."""
    from repro.core import adaptive
    from repro.evaluation import harness
    from repro.evaluation.store import ArtifactStore
    from repro.selection import batch, metasearcher, topk
    from repro.serving import shm, workers
    from repro.serving.lifecycle import CellUpdater
    from repro.serving.service import SelectionService

    def tag_request(record, response):
        if isinstance(response, dict):
            record[5] = response.get("request_id")

    def count_decisions(_record, decisions):
        tracer.count("adaptive.decisions", len(decisions))

    def count_topk(_record, result):
        if result is None:
            return
        stats = result[1]
        tracer.count("topk.pruned")
        tracer.count("topk.candidates", stats.candidates_scored)
        if stats.candidates_scored >= stats.total:
            tracer.count("topk.full_scans")

    def count_serial(_record, _result):
        tracer.count("selection.serial_fallbacks")

    tracer.wrap(SelectionService, "select", SELECT, tag_request)
    tracer.wrap(metasearcher.Metasearcher, "select", METASEARCH)
    tracer.wrap(metasearcher.Metasearcher, "_adaptive_decisions", DECIDE, count_decisions)
    tracer.wrap(metasearcher.Metasearcher, "_batched_floors", FLOORS)
    tracer.wrap(adaptive.ScoreDistributionModel, "score_moments", MOMENTS)
    tracer.count_calls(adaptive.ScoreDistributionModel, "word_posterior", "adaptive.posteriors")
    tracer.wrap(batch.BatchSelectionEngine, "rank", RANK)
    tracer.wrap(batch.AdaptiveBatchEngine, "rank", RANK)
    tracer.wrap(topk.TopKEngine, "rank", TOPK, count_topk)
    tracer.wrap(topk.MixedTopKEngine, "rank", TOPK, count_topk)
    tracer.wrap(metasearcher, "rank_databases", SERIAL_RANK, count_serial)
    tracer.wrap(ArtifactStore, "load_artifact", STORE_LOAD)
    tracer.wrap(harness, "get_cell", GET_CELL)
    tracer.wrap(harness, "ensure_shrunk", ENSURE_SHRUNK)
    tracer.wrap(harness, "build_summary_universe", SYNTHESIZE)
    tracer.wrap(SelectionService, "warmup", WARMUP)
    tracer.wrap(SelectionService, "_warm", WARM)
    tracer.wrap(workers.WorkerPool, "start", WORKERS_START)
    tracer.wrap(workers.WorkerPool, "apply_update", POOL_UPDATE)
    tracer.wrap(CellUpdater, "apply", UPDATER_APPLY)
    tracer.wrap(shm, "publish_snapshot", PACK)
    tracer.wrap(workers.WorkerPool, "_broadcast_flip", FLIP)
    return tracer


# -- analysis ---------------------------------------------------------------------


class SpanTree:
    """Parent/child index over recorded spans (one process's ids)."""

    def __init__(self, spans: list[list]) -> None:
        self.by_id = {span[0]: span for span in spans}
        self.children: dict[int, list[list]] = defaultdict(list)
        for span in spans:
            self.children[span[4]].append(span)

    @staticmethod
    def duration(span: list) -> float:
        return span[3] - span[2]

    def self_time(self, span: list) -> float:
        return self.duration(span) - sum(
            self.duration(child) for child in self.children.get(span[0], ())
        )

    def descendants(self, span: list):
        pending = list(self.children.get(span[0], ()))
        while pending:
            child = pending.pop()
            yield child
            pending.extend(self.children.get(child[0], ()))

    def roots(self, name: str) -> list[list]:
        return [span for span in self.by_id.values() if span[1] == name and span[4] == 0]


def request_layers(spans: list[list], counts, roots: list[list]) -> dict[str, float]:
    """Per-request layer times (ms) and counts over the given select roots.

    Times are sums over the requests divided by the request count. Every
    span under a root is charged its self time to its own name, so the
    ``self.*`` entries add up to the roots' mean duration exactly.
    """
    tree = SpanTree(spans)
    n = len(roots)
    totals: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    root_ids = set()
    for root in roots:
        root_ids.add(root[0])
        totals[root[1]] += tree.duration(root)
        selfs[root[1]] += tree.self_time(root)
        for span in tree.descendants(root):
            totals[span[1]] += tree.duration(span)
            selfs[span[1]] += tree.self_time(span)
    per_root_counts: dict[str, float] = defaultdict(float)
    for (name, root), value in counts.items():
        if root in root_ids:
            per_root_counts[name] += value
    out = {f"total.{name}": value * 1000.0 / n for name, value in totals.items()}
    out.update({f"self.{name}": value * 1000.0 / n for name, value in selfs.items()})
    out.update({f"count.{name}": value / n for name, value in per_root_counts.items()})
    out["requests"] = float(n)
    return out


def setup_layers(spans: list[list]) -> dict[str, float]:
    """Set-up layer times in seconds: store loads, cell assembly, synthesis,
    warm-up and pool start, from spans outside any update."""
    tree = SpanTree(spans)
    updates = [span for span in spans if span[1] == POOL_UPDATE]
    in_update = {child[0] for update in updates for child in tree.descendants(update)}
    in_update.update(update[0] for update in updates)
    outside = [span for span in spans if span[0] not in in_update]

    def total(name: str) -> float:
        return sum(tree.duration(span) for span in outside if span[1] == name)

    cell = 0.0
    for span in outside:
        if span[1] in (GET_CELL, ENSURE_SHRUNK) and tree.by_id.get(span[4], [None, None])[1] not in (
            GET_CELL,
            ENSURE_SHRUNK,
        ):
            cell += tree.duration(span) - sum(
                tree.duration(inner)
                for inner in tree.descendants(span)
                if inner[1] in (STORE_LOAD, SYNTHESIZE)
                and tree.by_id.get(inner[4], [None, None])[1] not in (STORE_LOAD, SYNTHESIZE)
            )
    return {
        "store.load_s": total(STORE_LOAD),
        "harness.cell_s": cell,
        "corpus.synthesize_s": total(SYNTHESIZE),
        "service.warmup_s": total(WARMUP),
        "workers.start_s": total(WORKERS_START),
    }


def update_layers(spans: list[list]) -> dict[str, float]:
    """Per-update dispatcher phase times (ms): EM apply, warm, pack, flip."""
    tree = SpanTree(spans)
    updates = [span for span in spans if span[1] == POOL_UPDATE]
    n = len(updates)
    sums: dict[str, float] = defaultdict(float)
    for update in updates:
        for span in tree.descendants(update):
            sums[span[1]] += tree.duration(span)
    if not n:
        return {"lifecycle.apply_ms": 0.0, "lifecycle.warm_ms": 0.0, "shm.pack_ms": 0.0, "workers.flip_ms": 0.0}
    return {
        "lifecycle.apply_ms": sums[UPDATER_APPLY] * 1000.0 / n,
        "lifecycle.warm_ms": sums[WARM] * 1000.0 / n,
        "shm.pack_ms": sums[PACK] * 1000.0 / n,
        "workers.flip_ms": sums[FLIP] * 1000.0 / n,
    }
