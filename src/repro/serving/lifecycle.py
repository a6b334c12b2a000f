"""Dynamic database lifecycle for the serving path (DESIGN.md §5d).

A long-running ``repro serve`` process faces a changing world: databases
appear, disappear, or get resampled. Rebuilding the whole cell for every
change would stall serving for seconds; this module applies changes
*incrementally* and publishes them with a copy-on-write hot swap:

* :class:`CellSnapshot` — an immutable bundle (metasearcher, prebuilt
  score matrices, response cache) that serving threads read lock-free
  through a single atomic reference. In-flight requests keep serving
  from the snapshot they started on.
* :class:`CellUpdater` — applies ``add`` / ``remove`` / ``replace`` /
  ``resample`` / ``restore`` operations to a
  :meth:`~repro.core.category.CategorySummaryBuilder.copy_for_update`
  clone of the category builder, patching only the affected category
  path, and re-runs the Figure-2 EM only for databases whose mixture
  components actually changed. The resulting metasearcher builds its
  sparse score stores afresh from the summaries, in time proportional
  to their entry count.

Bit-identity contract: the incrementally updated cell must be *bitwise*
identical — shrunk probabilities, EM lambdas, scores, floors, selected
flags — to a cell rebuilt from scratch over the final database set.
:func:`verify_against_rebuild` checks exactly that; the contract holds
because every incremental path replays the canonical computation (same
fold order, same id space, same EM inputs) or reuses an object that is
bitwise what the rebuild would recompute.

What invalidates EM: structurally, *every* real update perturbs every
database — any churn changes the root aggregate, hence the C0-exclusive
component of every mixture. Shrunk-summary reuse therefore fires only
when a database's whole ancestor chain survived bitwise (cancelling or
idempotent op sequences); the second line of defence is an exact
EM-input digest cache (:func:`repro.core.shrinkage.em_input_digest`),
which skips EM re-runs whenever the column matrix recurs, and the third
is the artifact store: the shrunk state reached by an op journal is
persisted under the ``lifecycle`` kind, so replaying the same journal on
the same base cell is a cache load, not an EM run.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.category import CategorySummaryBuilder
from repro.core.lru import LruCache
from repro.core.shrinkage import ShrunkSummary, shrink_database_summary
from repro.selection import oracle
from repro.selection.batch import STORE_FIELDS
from repro.selection.metasearcher import Metasearcher
from repro.summaries.io import summary_from_dict, summary_to_dict
from repro.summaries.summary import (
    ContentSummary,
    SampledSummary,
    rehome_summary,
)

#: Bound on the updater's exact EM-input digest → lambdas cache.
EM_CACHE_SIZE = 4096

#: Part of every lifecycle artifact's store key. Version 2: ``restore``
#: puts a database back at its old position in the cell's fold order, so
#: shrunk sets saved when it appended must never be replayed.
LIFECYCLE_ARTIFACT_VERSION = 2

#: Operations :func:`canonical_op` accepts.
_OP_KINDS = ("add", "remove", "replace", "resample", "restore")


def canonical_op(op: Mapping) -> dict:
    """Validate one raw update operation into its canonical journal form.

    The canonical form is plain JSON data and *fully determines* the
    operation's effect given the journal prefix before it — which is what
    makes the (base cell, journal) pair a sound artifact-store key.
    Raises ``ValueError`` on anything malformed (the HTTP layer maps that
    to a 400).
    """
    if not isinstance(op, Mapping):
        raise ValueError("each operation must be a JSON object")
    kind = str(op.get("op", "")).lower()
    if kind not in _OP_KINDS:
        raise ValueError(f"unknown op {kind!r}; pick from {_OP_KINDS}")
    name = op.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError('"name" must be a non-empty string')
    canonical: dict = {"op": kind, "name": name}
    if kind in ("remove", "restore"):
        return canonical
    if kind == "resample":
        seed = op.get("seed", 1)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError('"seed" must be a non-negative integer')
        canonical["seed"] = seed
        return canonical
    # add / replace carry a standalone summary payload.
    summary = op.get("summary")
    if not isinstance(summary, Mapping):
        raise ValueError(f'{kind} requires a "summary" payload object')
    canonical["summary"] = dict(summary)
    if kind == "add":
        path = op.get("path")
        if (
            not isinstance(path, (list, tuple))
            or not path
            or not all(isinstance(part, str) for part in path)
        ):
            raise ValueError('add requires a non-empty "path" list of strings')
        canonical["path"] = list(path)
    return canonical


def summary_payload(summary: ContentSummary) -> dict:
    """A standalone (self-contained) payload for an ``add``/``replace`` op."""
    return summary_to_dict(summary)


def resample_database(
    dataset: str,
    sampler: str,
    frequency_estimation: bool,
    scale: str,
    name: str,
    seed: int,
) -> SampledSummary:
    """Re-run the sampling pipeline for one database with a fresh seed.

    Mirrors :func:`repro.evaluation.harness.sample_one_database` exactly,
    except the per-database RNG streams are extended with ``seed`` —
    ``[stream, index, seed]`` instead of ``[stream, index]`` — so every
    seed yields a distinct but fully deterministic sample. The database
    keeps its current classification: resampling refreshes the content
    summary, it does not move the database in the hierarchy. This is the
    one serving path that reads documents: it loads the testbed on first
    use, and :class:`CellUpdater` journals its result as a ``replace``.
    """
    from repro.evaluation import harness
    from repro.summaries.focused import FPSConfig, FPSSampler
    from repro.summaries.frequency import (
        build_estimated_summary,
        build_raw_summary,
    )
    from repro.summaries.sampling import QBSSampler
    from repro.summaries.size import sample_resample_size

    profile = harness.SCALES[scale]
    testbed = harness.get_testbed(dataset, scale)
    index = next(
        (i for i, db in enumerate(testbed.databases) if db.name == name),
        None,
    )
    if index is None:
        raise ValueError(f"no database named {name!r} in the {dataset} testbed")
    db = testbed.databases[index]

    if sampler == "qbs":
        qbs = QBSSampler(profile.qbs)
        seed_vocabulary = testbed.corpus_model.general_words(
            profile.seed_vocabulary_size
        )
        rng = np.random.default_rng([harness.QBS_SEED_STREAM, index, seed])
        sample = qbs.sample(db.engine, rng, seed_vocabulary)
    else:
        rules = harness.get_probe_rules(dataset, scale)
        fps = FPSSampler(
            rules,
            FPSConfig(
                docs_per_probe=profile.fps_docs_per_probe,
                max_sample_docs=profile.fps_max_sample_docs,
            ),
        )
        sample = fps.sample(db.engine).sample

    rng = np.random.default_rng([harness.SIZE_SEED_STREAM, index, seed])
    size = sample_resample_size(sample, db.engine, rng)
    if frequency_estimation:
        return build_estimated_summary(sample, size)
    return build_raw_summary(sample, size)


@dataclass(frozen=True)
class CellSnapshot:
    """One immutable, fully warmed serving state.

    Serving threads read the current snapshot through a single attribute
    load (atomic under the GIL) and then touch only this bundle for the
    rest of the request — the metasearcher's engines and matrices were
    built before publication and are never mutated afterwards, and the
    response cache is per-snapshot, so a swap can never serve a stale
    (pre-update) response for a post-update query.
    """

    version: int
    metasearcher: Metasearcher
    cache: LruCache
    databases: tuple[str, ...]
    created_at: float
    build_seconds: float
    #: Shared-memory manifest for this snapshot's score-matrix segment
    #: (multi-worker serving, see :mod:`repro.serving.shm`); ``None``
    #: when the snapshot's matrices live in ordinary process memory.
    shm_manifest: Mapping | None = None

    @property
    def epoch(self) -> int:
        """The snapshot's epoch — its position in the swap sequence.

        Workers and the dispatcher agree on epochs by construction: the
        dispatcher stamps each flip message with the version the update
        produced, and workers publish their caught-up snapshot under
        exactly that number (see ``serving/workers.py``).
        """
        return self.version


class CellUpdater:
    """Applies lifecycle operations incrementally, producing new cells.

    Owns the evolving builder chain: every :meth:`apply` clones the
    current builder copy-on-write, patches the affected category paths,
    recomputes only the shrunk summaries whose mixture inputs changed,
    and returns a fresh :class:`~repro.selection.metasearcher.Metasearcher`
    for the caller to wrap in a snapshot. Not thread-safe by itself —
    the service serializes updates under its own updater lock.
    """

    def __init__(
        self,
        metasearcher: Metasearcher,
        store=None,
        base_config: Mapping | None = None,
        harness_context: tuple[str, str, bool, str] | None = None,
    ) -> None:
        self._builder = metasearcher.builder
        self._shrunk: dict[str, ShrunkSummary] = dict(
            metasearcher.shrunk_summaries
        )
        self.hierarchy = metasearcher.hierarchy
        self.shrinkage_config = metasearcher.shrinkage_config
        self.adaptive_config = metasearcher.adaptive_config
        #: Artifact store for lifecycle persistence (optional).
        self.store = store
        #: The base cell's shrunk-artifact configuration; with ``store``,
        #: (base_config, journal) keys the persisted lifecycle states.
        self.base_config = dict(base_config) if base_config is not None else None
        #: (dataset, sampler, frequency_estimation, scale) when the cell
        #: came from the harness; required for ``resample`` ops.
        self.harness_context = harness_context
        #: Canonical ops applied so far, in order.
        self.journal: list[dict] = []
        #: Exact EM-input digest → lambdas (see shrinkage.em_input_digest).
        self.em_cache = LruCache(EM_CACHE_SIZE)
        #: Summaries (and paths) of removed databases, for ``restore``.
        #: Each entry is (summary, path, names that followed it then).
        self._removed: dict[
            str, tuple[ContentSummary, tuple[str, ...], tuple[str, ...]]
        ] = {}

    # -- op application --------------------------------------------------------

    def _resolve(self, op: dict) -> dict:
        """The journal form of one canonical op.

        A ``resample`` is drawn here, once, and journaled as the
        ``replace`` it amounts to, carrying the drawn summary's payload.
        Only this process reads the documents: pool workers replaying a
        flip suffix, a restart replaying the journal, and lifecycle
        artifact keys all see a plain ``replace``.
        """
        if op["op"] != "resample":
            return op
        if self.harness_context is None:
            raise ValueError(
                "resample requires a harness-backed service "
                "(this cell was not built through the harness)"
            )
        fresh = resample_database(*self.harness_context, op["name"], op["seed"])
        return {
            "op": "replace",
            "name": op["name"],
            "summary": summary_payload(fresh),
        }

    @staticmethod
    def _materialize(op: dict, working: CategorySummaryBuilder):
        """The re-homed summary an add/replace op introduces."""
        return rehome_summary(summary_from_dict(op["summary"]), working.vocab)

    def apply(self, ops: Sequence[Mapping]) -> tuple[Metasearcher, dict]:
        """Apply ``ops`` in order; returns (new metasearcher, info dict).

        The current builder is never mutated — a failed op leaves the
        updater (and every published snapshot) exactly as it was. On
        success the updater advances to the new state and the returned
        metasearcher carries the patched builder and the minimally
        recomputed shrunk set.
        """
        from repro.evaluation.instrument import count, span

        ops = [self._resolve(canonical_op(op)) for op in ops]
        if not ops:
            raise ValueError("update requires at least one operation")

        working = self._builder.copy_for_update()
        previous_summaries = self._builder.database_summaries()
        uniform_before = self._builder.uniform_probability()
        changed: set[tuple[str, ...]] = set()
        removed_now: dict[
            str, tuple[ContentSummary, tuple[str, ...], tuple[str, ...]]
        ] = {}

        with span("lifecycle.apply", ops=len(ops)):
            for op in ops:
                name = op["name"]
                kind = op["op"]
                if kind == "remove":
                    try:
                        path = working.classification(name)
                    except KeyError:
                        raise ValueError(
                            f"cannot remove unknown database {name!r}"
                        ) from None
                    current = working.database_summaries()
                    order = list(current)
                    summary = current[name]
                    changed |= working.remove_database(name)
                    following = tuple(order[order.index(name) + 1 :])
                    removed_now[name] = (summary, path, following)
                elif kind == "restore":
                    record = removed_now.pop(name, None) or self._removed.get(name)
                    if record is None:
                        raise ValueError(
                            f"cannot restore {name!r}: it was never removed"
                        )
                    summary, path, following = record
                    # Back where it was in the fold order: before the first
                    # database that followed it and is still here.
                    present = working.database_classifications()
                    before = next(
                        (other for other in following if other in present),
                        None,
                    )
                    changed |= working.add_database(
                        name, summary, path, before=before
                    )
                elif kind == "add":
                    summary = self._materialize(op, working)
                    changed |= working.add_database(
                        name, summary, tuple(op["path"])
                    )
                else:  # replace (a resample arrives resolved to one)
                    summary = self._materialize(op, working)
                    current = working.database_summaries().get(name)
                    # A summary equal field for field to the current one
                    # leaves the current object in place: nothing is
                    # touched and every derived state carries over.
                    if not same_summary(summary, current):
                        changed |= working.replace_database(name, summary)

            # Judge the batch as a whole: a path a cancelling pair passed
            # through keeps the pre-update aggregate, so every R(D) under
            # it stays reusable.
            changed = working.settle(self._builder, changed)
            summaries = working.database_summaries()
            classifications = working.database_classifications()
            journal = self.journal + ops

            shrunk, reused, em_ran, cache_hit = self._recompute_shrunk(
                working,
                summaries,
                classifications,
                changed,
                previous_summaries,
                uniform_same=(
                    working.uniform_probability() == uniform_before
                ),
                journal=journal,
            )

        metasearcher = Metasearcher(
            self.hierarchy,
            summaries,
            classifications,
            shrinkage_config=self.shrinkage_config,
            adaptive_config=self.adaptive_config,
            builder=working,
        )
        metasearcher.set_shrunk_summaries(shrunk)

        # Commit: only reached when every op (and the recompute) succeeded.
        self._builder = working
        self._shrunk = dict(shrunk)
        self._removed.update(removed_now)
        for name in list(self._removed):
            if name in classifications:
                del self._removed[name]
        self.journal = journal

        count("lifecycle.ops", len(ops))
        count("lifecycle.shrunk_reused", reused)
        count("lifecycle.em_recomputed", em_ran)

        # Which databases this update *touched* (summary object replaced
        # or newly added). Object identity is the right test: the builder
        # keeps previous summary objects whenever an op sequence cancels
        # out, and a kept object is bitwise what a rebuild recomputes.
        touched = sorted(
            name
            for name, summary in summaries.items()
            if previous_summaries.get(name) is not summary
        )
        info = {
            "ops": len(ops),
            "databases": len(summaries),
            "changed_paths": len(changed),
            "shrunk_reused": reused,
            "em_recomputed": em_ran,
            "lifecycle_cache_hit": cache_hit,
            "journal_length": len(journal),
            "touched_databases": touched,
            # The cell computes bitwise what it did before: the same
            # summary objects in the same order (collection statistics
            # fold in dict order), no aggregate moved, and every R(D) is
            # the previous object. The response cache survives only this.
            "unchanged": list(previous_summaries) == list(summaries)
            and not touched
            and not changed
            and reused == len(summaries),
        }
        return metasearcher, info

    def _recompute_shrunk(
        self,
        working: CategorySummaryBuilder,
        summaries: Mapping[str, ContentSummary],
        classifications: Mapping[str, tuple[str, ...]],
        changed: set[tuple[str, ...]],
        previous_summaries: Mapping[str, ContentSummary],
        uniform_same: bool,
        journal: list[dict],
    ) -> tuple[dict[str, ShrunkSummary], int, int, bool]:
        """Post-op shrunk set: store replay, object reuse, or fresh EM.

        A previous R(D) is reused wholesale only when every EM input is
        the *same object or bitwise value* as before: the database's own
        summary object survived, no aggregate on its ancestor chain
        changed (root included, which also pins C0's uniform
        probability). Everything else goes through
        :func:`shrink_database_summary` with the exact digest cache.
        """
        from repro.evaluation import store as store_mod
        from repro.evaluation.instrument import count

        reusable = {
            name: previous
            for name, summary in summaries.items()
            if (previous := self._shrunk.get(name)) is not None
            and uniform_same
            and previous_is_reusable(
                previous,
                summary,
                previous_summaries.get(name),
                classifications[name],
                changed,
                self.hierarchy,
            )
        }
        if len(reusable) == len(summaries):
            # Nothing any R(D) depends on changed: keep every object.
            return reusable, len(reusable), 0, False

        key = None
        config = None
        if self.store is not None and self.base_config is not None:
            config = {
                "artifact": "lifecycle",
                "version": LIFECYCLE_ARTIFACT_VERSION,
                "base": self.base_config,
                "journal": journal,
            }
            key = store_mod.fingerprint(config)
            loaded = self.store.load_artifact(
                "lifecycle", key, store_mod.shrunk_from_payload
            )
            if loaded is not None and set(loaded) == set(summaries):
                count("lifecycle.cache_hit")
                shrunk = {
                    name: rehome_summary(
                        loaded[name], working.vocab, base=summaries[name]
                    )
                    for name in summaries
                }
                return shrunk, 0, 0, True

        shrunk = {
            name: reusable.get(name)
            or shrink_database_summary(
                name,
                summary,
                working,
                self.shrinkage_config,
                em_cache=self.em_cache,
            )
            for name, summary in summaries.items()
        }
        reused = len(reusable)
        em_ran = len(summaries) - reused

        if self.store is not None and key is not None:
            self.store.save(
                "lifecycle",
                key,
                store_mod.shrunk_to_payload(shrunk),
                config=config,
            )
        return shrunk, reused, em_ran, False


def same_summary(
    summary: ContentSummary, current: ContentSummary | None
) -> bool:
    """Whether ``summary`` equals ``current`` field for field: type,
    vocabulary, size, both regimes' ids and values, and for sampled
    summaries the sample size, sample df/tf and alpha."""
    if (
        current is None
        or type(summary) is not type(current)
        or type(summary) not in (ContentSummary, SampledSummary)
        or summary.vocab is not current.vocab
        or summary.size != current.size
    ):
        return False
    for regime in ("df", "tf"):
        ids, values = summary.regime_arrays(regime)
        current_ids, current_values = current.regime_arrays(regime)
        if not (
            np.array_equal(ids, current_ids)
            and np.array_equal(values, current_values)
        ):
            return False
    if isinstance(summary, SampledSummary):
        return (
            summary.sample_size,
            summary.sample_df,
            summary.sample_tf,
            summary.alpha,
        ) == (
            current.sample_size,
            current.sample_df,
            current.sample_tf,
            current.alpha,
        )
    return True


def previous_is_reusable(
    previous: ShrunkSummary,
    summary: ContentSummary,
    summary_before: ContentSummary | None,
    path: tuple[str, ...],
    changed: set[tuple[str, ...]],
    hierarchy,
) -> bool:
    """Whether a prior R(D) is bitwise what a rebuild would recompute.

    True only when the database's summary is the same object as when
    ``previous`` was computed *and* every aggregate on its ancestor
    chain survived the update bitwise (``settle`` puts back the previous
    aggregate object, and its cached category summary, wherever the
    batch ended on the same bits, so cancelling sequences get here).
    """
    if summary_before is not summary:
        return False
    if previous.base is not summary:
        return False
    return not any(node.path in changed for node in hierarchy.path_to_root(path))


# -- verification ------------------------------------------------------------------

_VERIFY_ALGORITHMS = ("bgloss", "cori", "lm")
_VERIFY_STRATEGIES = ("plain", "universal", "shrinkage")


def probe_queries(
    metasearcher: Metasearcher, count: int = 6
) -> list[list[str]]:
    """Deterministic two-term probe queries spread over the cell's vocabulary."""
    ids = metasearcher.builder.global_ids()
    words = list(metasearcher.builder.vocab.words_of(ids))
    if not words:
        return [["empty"]]
    queries = []
    stride = max(len(words) // max(count, 1), 1)
    for i in range(count):
        first = words[(i * stride) % len(words)]
        second = words[(i * stride + stride // 2 + 1) % len(words)]
        queries.append([first, second])
    queries.append([words[0], "lifecycle-oov-term"])
    return queries


def verify_against_rebuild(
    metasearcher: Metasearcher,
    queries: Sequence[Sequence[str]] | None = None,
    k: int = 5,
) -> dict:
    """Compare an incrementally updated cell against a from-scratch rebuild.

    Builds a fresh :class:`CategorySummaryBuilder` and
    :class:`Metasearcher` over the *final* summaries/classifications
    (same objects, same dict order, same vocabulary instance — the
    canonical state the incremental path claims to have reached), runs
    the full EM from scratch, and demands bitwise equality of every
    shrunk probability array, every lambda and every column-store array.
    The incremental cell's full and pruned answers to the probe queries
    must be bit-identical to the rebuild's serial ranking
    (:func:`repro.selection.oracle.sweep`) across algorithms and
    strategies. Returns a report dict with ``verified`` plus the largest
    lambda deviation observed (0.0 when bit-identical).
    """
    summaries = metasearcher.builder.database_summaries()
    classifications = metasearcher.builder.database_classifications()
    fresh = Metasearcher(
        metasearcher.hierarchy,
        summaries,
        classifications,
        shrinkage_config=metasearcher.shrinkage_config,
        adaptive_config=metasearcher.adaptive_config,
        builder=CategorySummaryBuilder(
            metasearcher.hierarchy, summaries, classifications
        ),
    )

    mismatches: list[str] = []
    max_lambda_delta = 0.0
    incremental = metasearcher.shrunk_summaries
    rebuilt = fresh.shrunk_summaries
    if set(incremental) != set(rebuilt):
        mismatches.append("database sets differ")
    for name in incremental:
        if name not in rebuilt:
            continue
        a, b = incremental[name], rebuilt[name]
        for mine, theirs in ((a.lambdas, b.lambdas), (a.tf_lambdas, b.tf_lambdas)):
            if len(mine) != len(theirs):
                mismatches.append(f"{name}: lambda arity")
                continue
            delta = max(
                (abs(x - y) for x, y in zip(mine, theirs)), default=0.0
            )
            max_lambda_delta = max(max_lambda_delta, delta)
            if delta != 0.0:
                mismatches.append(f"{name}: lambdas differ by {delta:g}")
        if a.uniform_probability != b.uniform_probability:
            mismatches.append(f"{name}: uniform probability")
        if a.size != b.size:
            mismatches.append(f"{name}: size")
        for regime in ("df", "tf"):
            ids_a, values_a = a.regime_arrays(regime)
            ids_b, values_b = b.regime_arrays(regime)
            if not (
                np.array_equal(ids_a, ids_b)
                and np.array_equal(values_a, values_b)
            ):
                mismatches.append(f"{name}: {regime} probabilities")

    # Every column-store array — entries, defaults and the bounds the
    # pruned top-k engine scores against (a stale bound silently breaks
    # its exactness guarantee) — must equal a fresh build's bit for bit.
    metasearcher.ensure_engines()
    fresh.ensure_engines()
    theirs_by_role = fresh.engine_matrices()
    for key, mine in metasearcher.engine_matrices().items():
        theirs = theirs_by_role[key]
        for regime in ("df", "tf"):
            ours, rebuilt_store = mine.store(regime), theirs.store(regime)
            for field in STORE_FIELDS:
                if not np.array_equal(
                    getattr(ours, field), getattr(rebuilt_store, field)
                ):
                    mismatches.append(f"{key}: {field}.{regime}")

    if queries is None:
        queries = probe_queries(metasearcher)

    def answer(prune: bool):
        return lambda terms, algorithm, strategy, k: metasearcher.select(
            terms, algorithm=algorithm, strategy=strategy, k=k, prune=prune
        )

    # Full and pruned answers of the incremental cell against the serial
    # ranking of the rebuild.
    checked = 0
    for algorithm in _VERIFY_ALGORITHMS:
        for strategy in _VERIFY_STRATEGIES:
            report = oracle.sweep(
                fresh,
                [answer(False), answer(True)],
                queries,
                algorithm,
                strategy,
                k,
            )
            checked += report["checked"]
            mismatches.extend(report["examples"])

    return {
        "verified": not mismatches,
        "databases": len(incremental),
        "max_lambda_delta": max_lambda_delta,
        "selections_checked": checked,
        "mismatches": mismatches[:10],
    }
