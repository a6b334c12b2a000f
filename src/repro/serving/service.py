"""The in-process selection service behind ``repro serve``.

Design constraints (DESIGN.md §5c–§5d):

* **Preload once, serve many.** The cell's sampled and shrunk summaries —
  and the batched score matrices stacked from them — are built (or loaded
  from the artifact store) at startup. A request never triggers testbed
  synthesis, sampling, or EM.
* **Bounded memory.** Every per-query cache in the request path is a
  bounded :class:`~repro.core.lru.LruCache`: the snapshot's response
  cache here, the resolved-query-id, per-query factor, and per-database
  moment caches inside the scorers, matrices, and adaptive models.
* **Graceful degradation.** The adaptive strategy's per-database decision
  loop is the only per-query phase whose cost scales with the database
  count; when it exceeds the per-request budget, the request is re-served
  from the plain batched path and marked ``degraded``. The budget starts
  at *request arrival* (the HTTP layer captures the arrival instant
  before any parsing or queueing), so time spent waiting never silently
  extends a request's deadline.
* **Lock-free serving.** There is no lock on the request path. Scoring
  reads an immutable :class:`~repro.serving.lifecycle.CellSnapshot`
  through one atomic attribute load; every shared cache it touches is
  internally synchronized. ``GET /healthz`` and ``GET /stats`` read the
  snapshot reference and a small locked counter block — they stay fast
  (sub-millisecond) no matter how saturated ``/select`` is.
* **Copy-on-write hot swap.** ``POST /admin/update`` applies lifecycle
  operations through a :class:`~repro.serving.lifecycle.CellUpdater`,
  builds and warms a *new* snapshot off to the side, then publishes it
  with a single reference swap. In-flight requests finish on the
  snapshot they started with; no request ever observes a half-updated
  cell. Updates are serialized by their own lock, which ``/select``
  never takes.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.core.lru import MISSING, LruCache
from repro.selection.metasearcher import (
    Metasearcher,
    SelectionDeadlineExceeded,
    SelectionStrategy,
)
from repro.serving.admission import AdmissionController, ServiceOverloaded
from repro.serving.lifecycle import (
    CellSnapshot,
    CellUpdater,
    verify_against_rebuild,
)
from repro.serving.telemetry import RequestTelemetry, SlowQueryLog, record_request

_ALGORITHMS = ("bgloss", "cori", "lm")
_STRATEGIES = ("plain", "shrinkage", "universal")


@dataclass(frozen=True)
class ServiceConfig:
    """What to preload and how to bound the request path."""

    dataset: str = "trec4"
    sampler: str = "qbs"
    frequency_estimation: bool = False
    scale: str = "small"
    #: Default number of databases to return.
    default_k: int = 10
    #: Per-request budget in seconds before an adaptive request degrades
    #: to plain scoring. ``None`` disables degradation. The budget is
    #: measured from request arrival, not from when scoring starts.
    request_timeout_seconds: float | None = 0.5
    #: Bound on each snapshot's (algorithm, strategy, query, k) cache.
    response_cache_size: int = 1024
    #: Route requests through the pruned exact top-k engine (bit-identical
    #: rankings, sublinear candidate touch — see repro.selection.topk).
    prune: bool = False
    #: Cap on how many ranking entries a response carries (``--topk``).
    #: ``None`` returns the full ranking; large universes need the cap to
    #: keep response size (and JSON encode time) independent of the
    #: database count.
    ranking_limit: int | None = None
    #: Which strategies this deployment serves. Universe-scale cells skip
    #: EM entirely by serving ``("plain",)`` — the shrunk summary set is
    #: then never materialized, and requests for other strategies are
    #: rejected with a 400 instead of silently triggering EM.
    strategies: tuple[str, ...] = _STRATEGIES
    #: Slow-query log destination (JSONL). ``None`` falls back to the
    #: ``REPRO_SLOW_QUERY_LOG`` environment variable; unset disables it.
    slow_query_log_path: str | None = None
    #: Requests slower than this (total, arrival to response) are logged.
    slow_query_threshold_seconds: float = 0.1
    #: Rotation bound for the slow-query log (~2x this on disk).
    slow_query_log_max_bytes: int = 1 << 20
    #: Admission control: at most this many requests score concurrently;
    #: ``None`` disables the gate entirely (the prior behavior). See
    #: :mod:`repro.serving.admission`.
    max_inflight: int | None = None
    #: How many requests may wait for an inflight slot before arrivals
    #: are shed outright with 429.
    admission_queue: int = 16
    #: Longest a queued request waits for a slot. Keep well below
    #: ``request_timeout_seconds``: shedding must answer before the
    #: degradation deadline would have fired.
    admission_timeout_seconds: float = 0.05
    #: The ``Retry-After`` hint carried on shed (429) responses.
    retry_after_seconds: float = 1.0


class ServiceStats:
    """Request counters, updated under a private lock.

    The lock guards only the integer bumps — it is never held across
    scoring, I/O, or cache operations, so ``/stats`` and ``/healthz``
    cannot be wedged behind a slow request the way the old whole-service
    lock allowed. Attribute reads are plain (ints are swapped
    atomically); :meth:`snapshot` takes the lock once for a consistent
    cut.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.cache_hits = 0
        self.degraded = 0
        self.errors = 0
        self.shed = 0
        self.swaps = 0
        self.last_swap_seconds = 0.0
        self.started_at = time.time()
        self._lock = threading.Lock()

    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def record_degraded(self) -> None:
        with self._lock:
            self.degraded += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_swap(self, seconds: float) -> None:
        with self._lock:
            self.swaps += 1
            self.last_swap_seconds = seconds

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "degraded": self.degraded,
                "errors": self.errors,
                "shed": self.shed,
                "swaps": self.swaps,
                "last_swap_seconds": self.last_swap_seconds,
                "uptime_seconds": time.time() - self.started_at,
            }


def normalize_query(query: str | Sequence[str]) -> tuple[str, ...]:
    """Lower-cased query terms from a string or a term sequence."""
    if isinstance(query, str):
        terms = query.split()
    else:
        terms = list(query)
    return tuple(str(term).lower() for term in terms)


def canonical_terms(terms: Sequence[str]) -> tuple[str, ...]:
    """Sorted, de-duplicated terms — the service's canonical query form.

    Every served scorer is a bag-of-words model, so a query is
    semantically a *set* of terms; the service canonicalizes to the
    sorted distinct tuple before scoring and caching. Canonicalizing
    only the cache key would not be enough: the scorers fold per-term
    factors sequentially, and IEEE float products are not associative,
    so ``["a","b"]`` and ``["b","a"]`` scored as-given can differ in the
    last ulp. Scoring the canonical order makes equal term sets
    *bit-identical*, which is what lets them share one cache entry.
    """
    return tuple(sorted(set(terms)))


def _copy_response(response: dict) -> dict:
    """An independent copy of a cached response (no shared containers).

    A cache hit must never hand out lists the cached entry still owns: a
    caller that sorts or annotates ``ranking`` in place would silently
    corrupt every later hit. The response shape is one level of nesting
    (lists of scalars, ranking entries are flat dicts), so an explicit
    copy beats ``copy.deepcopy`` by a wide margin on large rankings.
    """
    copied = dict(response)
    copied["query"] = list(response["query"])
    copied["selected"] = list(response["selected"])
    copied["ranking"] = [dict(entry) for entry in response["ranking"]]
    return copied


class SelectionService:
    """Answer database-selection queries from a preloaded cell."""

    def __init__(
        self,
        metasearcher: Metasearcher,
        config: ServiceConfig | None = None,
        harness_context: tuple[str, str, bool, str] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self._snapshot = CellSnapshot(
            version=1,
            metasearcher=metasearcher,
            cache=LruCache(self.config.response_cache_size),
            databases=tuple(metasearcher.sampled_summaries),
            created_at=time.time(),
            build_seconds=0.0,
        )
        self._harness_context = harness_context
        if self.config.slow_query_log_path:
            self.slow_query_log: SlowQueryLog | None = SlowQueryLog(
                self.config.slow_query_log_path,
                threshold_seconds=self.config.slow_query_threshold_seconds,
                max_bytes=self.config.slow_query_log_max_bytes,
            )
        else:
            self.slow_query_log = SlowQueryLog.from_env()
        #: Built on the first update, after warmup: it carries R(D) only
        #: when the served cell holds them, so a plain-only universe
        #: service's updates never run EM.
        self._updater: CellUpdater | None = None
        #: Serializes apply_update(); never taken on the request path.
        self._update_lock = threading.Lock()
        if self.config.max_inflight is not None:
            self._admission: AdmissionController | None = AdmissionController(
                self.config.max_inflight,
                max_queue=self.config.admission_queue,
                queue_timeout_seconds=self.config.admission_timeout_seconds,
                retry_after_seconds=self.config.retry_after_seconds,
            )
        else:
            self._admission = None

    @property
    def metasearcher(self) -> Metasearcher:
        """The currently published snapshot's metasearcher."""
        return self._snapshot.metasearcher

    @property
    def snapshot(self) -> CellSnapshot:
        """The currently published snapshot (one atomic read)."""
        return self._snapshot

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_harness(
        cls, config: ServiceConfig | None = None
    ) -> SelectionService:
        """Build a service by preloading a cell through the harness.

        Uses whatever harness configuration (artifact store, jobs) the
        caller has applied; with a warm store this is load-only. Live
        updates never write to the store: their R(D) live in memory.
        """
        from repro.evaluation import harness
        from repro.evaluation.instrument import span

        config = config or ServiceConfig()
        with span(
            "serve.preload",
            dataset=config.dataset,
            sampler=config.sampler,
            scale=config.scale,
        ):
            cell = harness.get_cell(
                config.dataset,
                config.sampler,
                config.frequency_estimation,
                config.scale,
            )
            needs_shrunk = any(s != "plain" for s in config.strategies)
            if needs_shrunk and harness.universe_size(config.dataset) is None:
                # Universe cells have no sampling pipeline; the
                # metasearcher shrinks lazily if an adaptive strategy
                # is actually queried.
                harness.ensure_shrunk(cell)
            service = cls(
                cell.metasearcher,
                config,
                harness_context=(
                    config.dataset,
                    config.sampler,
                    config.frequency_estimation,
                    config.scale,
                ),
            )
            service.warmup()
        return service

    def warmup(self) -> None:
        """Build every engine and score matrix before the first request.

        One throwaway query per (algorithm, strategy) forces scorer
        prepare, matrix stacking, and the column-store builds, so request
        latency never includes one-time construction — and so the
        lock-free request path never races a lazy engine build. Each
        store is built with the bound arrays the pruned scan reads, so a
        shared-memory pack right after warmup covers them.
        """
        self._warm(self._snapshot.metasearcher, self.config)

    @staticmethod
    def _warm(metasearcher: Metasearcher, config: ServiceConfig) -> None:
        for algorithm in _ALGORITHMS:
            for strategy in config.strategies:
                metasearcher.select(
                    ["warmup"],
                    algorithm=algorithm,
                    strategy=strategy,
                    k=1,
                    prune=config.prune,
                )

    # -- request path ----------------------------------------------------------

    def select(
        self,
        query: str | Sequence[str],
        algorithm: str = "cori",
        strategy: str = "shrinkage",
        k: int | None = None,
        timeout_seconds: float | None = None,
        arrival: float | None = None,
        telemetry: RequestTelemetry | None = None,
    ) -> dict:
        """Answer one selection request as a JSON-ready dict.

        ``arrival`` is the request's ``time.monotonic()`` arrival instant
        (defaults to now, for in-process callers); the degradation
        deadline is ``arrival + timeout``, so queue and parse time count
        against the budget. Raises ``ValueError`` for malformed requests
        (unknown algorithm or strategy, non-positive k) — the HTTP layer
        maps that to a 400.

        ``telemetry`` is the request's accumulator when the HTTP layer
        already timed its parse phase; in-process callers get a fresh
        one. Either way the request is published to the metrics registry
        (phases, outcome tags) exactly once, and slow requests land in
        the slow-query log when one is configured.
        """
        if telemetry is None:
            telemetry = RequestTelemetry("select")
        admission = self._admission
        try:
            if admission is not None:
                try:
                    with telemetry.phase("admission"):
                        admission.acquire()
                except ServiceOverloaded:
                    self.stats.record_shed()
                    telemetry.tag_outcome(shed=True)
                    raise
            try:
                return self._select(
                    query,
                    algorithm,
                    strategy,
                    k,
                    timeout_seconds,
                    arrival,
                    telemetry,
                )
            finally:
                if admission is not None:
                    admission.release()
        except BaseException as error:
            telemetry.fail(error)
            raise
        finally:
            elapsed = record_request(telemetry)
            if self.slow_query_log is not None:
                self.slow_query_log.maybe_record(telemetry, elapsed)

    def _select(
        self,
        query: str | Sequence[str],
        algorithm: str,
        strategy: str,
        k: int | None,
        timeout_seconds: float | None,
        arrival: float | None,
        telemetry: RequestTelemetry,
    ) -> dict:
        from repro.evaluation.instrument import get_instrumentation

        with telemetry.phase("parse"):
            if arrival is None:
                arrival = time.monotonic()
            algorithm = str(algorithm).lower()
            strategy = str(strategy).lower()
            if algorithm not in _ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {algorithm!r}; pick from {_ALGORITHMS}"
                )
            if strategy not in _STRATEGIES:
                raise ValueError(
                    f"unknown strategy {strategy!r}; pick from {_STRATEGIES}"
                )
            if strategy not in self.config.strategies:
                raise ValueError(
                    f"strategy {strategy!r} not served by this deployment; "
                    f"pick from {tuple(self.config.strategies)}"
                )
            terms = canonical_terms(normalize_query(query))
            if k is None:
                k = self.config.default_k
            k = int(k)
            if k <= 0:
                raise ValueError("k must be positive")
            if timeout_seconds is None:
                timeout_seconds = self.config.request_timeout_seconds

        # One atomic snapshot read; the whole request runs against it even
        # if an update publishes a newer snapshot mid-flight.
        snapshot = self._snapshot
        start = time.perf_counter()
        self.stats.record_request()
        telemetry.tag_outcome(
            query=list(terms),
            algorithm=algorithm,
            strategy=strategy,
            k=k,
            epoch=snapshot.version,
        )
        cache_key = (algorithm, strategy, terms, k)
        with telemetry.phase("cache"):
            # Sentinel miss: a cached falsy value (however a future
            # response shape ends up falsy) must still count as a hit.
            cached = snapshot.cache.get(cache_key, MISSING)
        if cached is not MISSING:
            self.stats.record_cache_hit()
            telemetry.tag_outcome(cache_hit=True)
            response = _copy_response(cached)
            response["cached"] = True
            response["request_id"] = telemetry.request_id
            return response
        telemetry.tag_outcome(cache_hit=False)
        with telemetry.phase("select"):
            outcome, degraded = self._score(
                snapshot, terms, algorithm, strategy, k, timeout_seconds, arrival
            )
        with telemetry.phase("serialize"):
            response = self._serialize(
                snapshot, terms, algorithm, strategy, k, outcome, degraded
            )
        if not degraded:
            # A degraded answer is never cached: it reflects one request's
            # budget, and a later request for the same query may have
            # time for the strategy it asked for.
            snapshot.cache.put(cache_key, response)
        elapsed = time.perf_counter() - start
        telemetry.tag_outcome(
            degraded=degraded,
            pruned=bool(self.config.prune),
            candidates_scored=outcome.candidates_scored,
        )
        instrumentation = get_instrumentation()
        instrumentation.count("serve.requests")
        instrumentation.observe("serve.request_seconds", elapsed)
        if degraded:
            instrumentation.count("serve.degraded")
        # Full copy, not dict(): the miss response must not share its
        # nested lists with the entry just cached either.
        response = _copy_response(response)
        response["elapsed_seconds"] = elapsed
        response["request_id"] = telemetry.request_id
        return response

    def _score(
        self,
        snapshot: CellSnapshot,
        terms: tuple[str, ...],
        algorithm: str,
        strategy: str,
        k: int,
        timeout_seconds: float | None,
        arrival: float,
    ):
        """Score one query against a snapshot; returns (outcome, degraded)."""
        degraded = False
        deadline = (
            arrival + timeout_seconds if timeout_seconds is not None else None
        )
        prune = self.config.prune
        try:
            outcome = snapshot.metasearcher.select(
                list(terms),
                algorithm=algorithm,
                strategy=strategy,
                k=k,
                deadline=deadline,
                prune=prune,
            )
        except SelectionDeadlineExceeded:
            self.stats.record_degraded()
            degraded = True
            outcome = snapshot.metasearcher.select(
                list(terms),
                algorithm=algorithm,
                strategy=SelectionStrategy.PLAIN,
                k=k,
                prune=prune,
            )
        return outcome, degraded

    def _serialize(
        self,
        snapshot: CellSnapshot,
        terms: tuple[str, ...],
        algorithm: str,
        strategy: str,
        k: int,
        outcome,
        degraded: bool,
    ) -> dict:
        """Build the JSON-ready (and cacheable) response dict."""
        return {
            "query": list(terms),
            "algorithm": algorithm,
            "strategy": strategy,
            "k": k,
            "degraded": degraded,
            "cached": False,
            "snapshot_version": snapshot.version,
            "selected": list(outcome.names),
            "ranking": outcome.ranking_entries(self.config.ranking_limit),
            "shrinkage_applications": outcome.shrinkage_applications,
            "candidates_scored": outcome.candidates_scored,
        }

    # -- lifecycle -------------------------------------------------------------

    @property
    def journal(self) -> list[dict]:
        """Canonical lifecycle ops applied so far (empty before updates)."""
        if self._updater is None:
            return []
        return list(self._updater.journal)

    def install_shm_manifest(self, manifest: Mapping) -> None:
        """Stamp the *current* snapshot with a shared-memory manifest.

        Used by the worker dispatcher right after it packs the initial
        segment: the snapshot's matrices have just been rebound onto the
        shared views, so the published reference should say so. The
        republication is one atomic store, same as a hot swap.
        """
        import dataclasses

        self._snapshot = dataclasses.replace(
            self._snapshot, shm_manifest=dict(manifest)
        )

    def apply_update(
        self,
        ops: Sequence[Mapping],
        verify: bool = False,
        materialize=None,
        version: int | None = None,
    ) -> dict:
        """Apply lifecycle operations and hot-swap in the updated cell.

        Builds and warms the new snapshot entirely off the request path,
        then publishes it with one atomic reference assignment; requests
        in flight keep their old snapshot, later requests see the new
        one. With ``verify=True`` the updated cell is additionally
        compared — bit for bit — against a from-scratch rebuild before
        publication, and the report is returned under ``"verification"``.
        Updates are serialized; concurrent calls queue on the updater
        lock. Raises ``ValueError`` on malformed or inapplicable ops
        (state is untouched in that case).

        ``materialize`` hooks multi-process serving in: called with
        ``(metasearcher, version)`` after the ops applied but before the
        service warms the new cell, it may install externally shared
        score-matrix buffers (see :mod:`repro.serving.shm`) and return a
        manifest to stamp on the published snapshot. ``version`` pins
        the new snapshot's number — a catch-up worker replaying a
        several-update journal suffix in one call lands on the
        dispatcher's epoch, not on ``previous + 1``.
        """
        from repro.evaluation.instrument import get_instrumentation, span

        with self._update_lock:
            previous = self._snapshot
            next_version = previous.version + 1 if version is None else version
            if self._updater is None:
                self._updater = CellUpdater(
                    previous.metasearcher,
                    harness_context=self._harness_context,
                )
            start = time.perf_counter()
            metasearcher, info = self._updater.apply(ops)
            manifest = None
            if materialize is not None:
                manifest = materialize(metasearcher, next_version)
            with span("lifecycle.warm", version=next_version):
                self._warm(metasearcher, self.config)
            build_seconds = time.perf_counter() - start
            result = dict(info)
            if verify:
                with span("lifecycle.verify"):
                    result["verification"] = verify_against_rebuild(
                        metasearcher
                    )
            swap_start = time.perf_counter()
            cache = LruCache(self.config.response_cache_size)
            result["response_cache_retained"] = self._carry_cache(
                previous, info, cache
            )
            snapshot = CellSnapshot(
                version=next_version,
                metasearcher=metasearcher,
                cache=cache,
                databases=tuple(metasearcher.sampled_summaries),
                created_at=time.time(),
                build_seconds=build_seconds,
                shm_manifest=dict(manifest) if manifest is not None else None,
            )
            self._snapshot = snapshot  # the hot swap: one atomic store
            swap_seconds = time.perf_counter() - swap_start
            self.stats.record_swap(build_seconds)
            instrumentation = get_instrumentation()
            instrumentation.count("lifecycle.swaps")
            instrumentation.observe("lifecycle.build_seconds", build_seconds)
            instrumentation.observe("lifecycle.swap_seconds", swap_seconds)
            instrumentation.set_gauge("serve.epoch", snapshot.version)
            result.update(
                {
                    "snapshot_version": snapshot.version,
                    "build_seconds": build_seconds,
                    "swap_seconds": swap_seconds,
                    "databases": len(snapshot.databases),
                }
            )
            return result

    def _carry_cache(
        self, previous: CellSnapshot, info: Mapping, cache: LruCache
    ) -> int:
        """Carry the response cache across the hot swap: every entry when
        the update left the cell ``unchanged``, none otherwise.

        An unchanged cell holds the previous sampled summary objects in
        the previous order, the previous category aggregates and every
        previous R(D), so the new snapshot computes bitwise the answers
        the old one cached (DESIGN.md §5j). Returns the number of entries
        carried.
        """
        if not info["unchanged"]:
            return 0
        # items() is oldest-to-most-recent, so re-putting in order
        # preserves the entries' relative recency in the new cache.
        for key, response in previous.cache.items():
            cache.put(key, response)
        return len(cache)

    # -- introspection ---------------------------------------------------------

    def cache_sizes(self, snapshot: CellSnapshot | None = None) -> dict[str, int]:
        """Current sizes of every bounded cache on the request path.

        ``snapshot`` pins which snapshot to measure: callers assembling a
        multi-field report (``stats_snapshot``) pass the reference they
        already read, so a hot swap landing between fields can't mix two
        snapshots' caches in one response body.
        """
        if snapshot is None:
            snapshot = self._snapshot
        sizes = {"responses": len(snapshot.cache)}
        for key, scorer in snapshot.metasearcher.engine_scorers().items():
            cache = getattr(scorer, "_query_ids_cache", None)
            if cache is not None:
                sizes[f"query_ids.{key[0]}.{key[1]}"] = len(cache)
        return sizes

    def describe(self) -> dict:
        """Service description (returned by ``GET /healthz``), lock-free."""
        import os

        snapshot = self._snapshot
        return {
            "status": "ok",
            "pid": os.getpid(),
            "epoch": snapshot.version,
            "shm_segment": (
                snapshot.shm_manifest["segment"]
                if snapshot.shm_manifest
                else None
            ),
            "dataset": self.config.dataset,
            "sampler": self.config.sampler,
            "frequency_estimation": self.config.frequency_estimation,
            "scale": self.config.scale,
            "databases": len(snapshot.databases),
            "snapshot_version": snapshot.version,
            "algorithms": list(_ALGORITHMS),
            "strategies": list(self.config.strategies),
            "prune": self.config.prune,
        }

    def stats_snapshot(self) -> dict:
        """Counters and cache sizes (``GET /stats``), lock-free.

        Reads the published snapshot reference and the stats counters
        (each internally consistent); it never waits on scoring.
        """
        import os

        snapshot = self._snapshot
        result = self.stats.snapshot()
        result["pid"] = os.getpid()
        result["snapshot_version"] = snapshot.version
        result["epoch"] = snapshot.version
        result["shm_segment"] = (
            snapshot.shm_manifest["segment"] if snapshot.shm_manifest else None
        )
        # Derive every cache size from the one snapshot reference read
        # above: a concurrent hot swap must not surface two snapshots'
        # caches in a single /stats body.
        result["cache_sizes"] = self.cache_sizes(snapshot)
        result["response_cache_maxsize"] = snapshot.cache.maxsize
        if self._admission is not None:
            result["admission"] = self._admission.occupancy()
        return result


def parse_request(payload: Mapping) -> dict:
    """Validate a raw /select JSON payload into select() keyword args."""
    if not isinstance(payload, Mapping):
        raise ValueError("request body must be a JSON object")
    query = payload.get("query")
    if query is None or (not isinstance(query, (str, list))):
        raise ValueError('"query" must be a string or a list of terms')
    if isinstance(query, list) and not all(
        isinstance(term, str) for term in query
    ):
        raise ValueError('"query" list entries must be strings')
    kwargs: dict = {"query": query}
    if "algorithm" in payload:
        kwargs["algorithm"] = str(payload["algorithm"])
    if "strategy" in payload:
        kwargs["strategy"] = str(payload["strategy"])
    if "k" in payload:
        kwargs["k"] = _parse_k(payload["k"])
    if "timeout_seconds" in payload and payload["timeout_seconds"] is not None:
        kwargs["timeout_seconds"] = _parse_timeout(payload["timeout_seconds"])
    return kwargs


def _parse_k(value) -> int:
    """An integral ``k``; a boolean or a fractional number is refused.

    ``int()`` alone would serve ``true`` as 1 and ``2.7`` as 2 — a
    different request from the one sent. Integral strings (``"3"``)
    stay accepted.
    """
    if isinstance(value, bool):
        raise ValueError('"k" must be an integer, not a boolean')
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f'"k" must be an integer, got {value!r}')
    try:
        return int(value)
    except (TypeError, ValueError) as error:
        raise ValueError('"k" must be an integer') from error


def _parse_timeout(value) -> float:
    """A finite, non-negative ``timeout_seconds``.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; a NaN deadline never
    fires and a negative one has passed before the request arrives.
    """
    if isinstance(value, bool):
        raise ValueError('"timeout_seconds" must be a number, not a boolean')
    try:
        timeout = float(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ValueError('"timeout_seconds" must be a number') from error
    if not math.isfinite(timeout) or timeout < 0:
        raise ValueError(
            f'"timeout_seconds" must be finite and non-negative, got {value!r}'
        )
    return timeout


def parse_update_request(payload: Mapping) -> dict:
    """Validate a raw /admin/update JSON payload into apply_update args."""
    if not isinstance(payload, Mapping):
        raise ValueError("request body must be a JSON object")
    ops = payload.get("ops")
    if not isinstance(ops, list) or not ops:
        raise ValueError('"ops" must be a non-empty list of operations')
    verify = payload.get("verify", False)
    if not isinstance(verify, bool):
        raise ValueError('"verify" must be a boolean')
    return {"ops": ops, "verify": verify}
