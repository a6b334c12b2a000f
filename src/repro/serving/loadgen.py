"""Load generator for the selection service.

Two traffic models (DESIGN.md §5j):

* The original *distinct* stream — every query unique, the worst case
  for caches, right for measuring raw scoring throughput and cache-miss
  behavior. ``repro loadgen`` feeds the summary into the bench
  trajectory (kind ``serve-load``) so query latency regressions get the
  same warn-only comparator treatment as the batch benchmarks.
* A :class:`WorkloadSpec` stream (``--workload zipf:1.1``) — Zipf-skewed
  query popularity over a bounded population (real selection traffic
  repeats popular information needs; the query-probing literature the
  paper builds on probes with a small reusable query set), optional
  burst/ramp/steady arrival schedules, and mixed query/update streams
  (a lifecycle update injected every N requests). Workload runs are
  recorded as ``serve-workload`` trajectory records: cache-hit rate,
  shed/degraded fraction, and latency percentiles per scenario.

Shed requests (HTTP 429 from admission control, or
:class:`~repro.serving.admission.ServiceOverloaded` in-process) are a
*successful overload outcome*, not an error: they are counted
separately and never abort the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro.serving.admission import ServiceOverloaded
from repro.serving.service import SelectionService

#: A select callable: (query_terms, algorithm, strategy, k) -> response.
SelectFn = Callable[[Sequence[str], str, str, int], dict]

#: Arrival patterns a WorkloadSpec understands.
_ARRIVALS = ("closed", "steady", "burst", "ramp")


def generate_queries(
    vocabulary: Sequence[str],
    count: int,
    seed: int = 0,
    min_terms: int = 1,
    max_terms: int = 4,
    oov_rate: float = 0.2,
) -> list[list[str]]:
    """``count`` distinct queries over ``vocabulary`` plus OOV terms.

    Distinctness matters: repeated queries would be answered from the
    response cache and measure nothing but dict lookups. A trailing
    per-query serial term guarantees uniqueness even when the vocabulary
    is tiny.
    """
    if not vocabulary:
        raise ValueError("cannot generate queries from an empty vocabulary")
    if min_terms < 1:
        raise ValueError(f"min_terms must be at least 1, got {min_terms}")
    if max_terms < min_terms:
        raise ValueError(
            f"max_terms ({max_terms}) must be >= min_terms ({min_terms})"
        )
    if not 0.0 <= oov_rate <= 1.0:
        raise ValueError(
            f"oov_rate must be within [0, 1], got {oov_rate}"
        )
    rng = np.random.default_rng(seed)
    words = list(vocabulary)
    queries: list[list[str]] = []
    for index in range(count):
        length = int(rng.integers(min_terms, max_terms + 1))
        terms = [
            words[int(rng.integers(0, len(words)))] for _ in range(length)
        ]
        if rng.random() < oov_rate:
            terms.append(f"oov-{index:06d}")
        else:
            # Serial marker keeps every query distinct without leaving
            # the in-vocabulary scoring path for the other terms.
            terms.append(f"q{index:06d}")
        queries.append(terms)
    return queries


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible traffic model: popularity, arrivals, update mix.

    ``kind="zipf"`` draws each request from a bounded population of
    distinct queries with Zipf(s) rank weights — rank r is requested
    proportionally to ``r**-s`` — so popular queries repeat heavily
    (cache-friendly head) while the tail stays cold, the shape real
    selection traffic has. ``kind="distinct"`` reproduces the original
    all-unique stream through the same machinery (so both land in
    ``serve-workload`` records and compare directly).

    Everything is seeded: the same spec string and seed replay the same
    request sequence, byte for byte.
    """

    kind: str = "distinct"
    #: Zipf exponent; 1.0–1.3 covers most measured query logs.
    s: float = 1.1
    #: Distinct-query population size for zipf.
    population: int = 128
    #: Arrival pattern: ``closed`` (issue as fast as the loop allows),
    #: ``steady`` (open loop at ``rate`` qps), ``burst`` (groups of
    #: ``burst`` arriving together at an average of ``rate`` qps), or
    #: ``ramp`` (rate climbing linearly from 0.2x to 1.8x ``rate``).
    arrival: str = "closed"
    rate: float = 0.0
    burst: int = 10
    #: Inject one lifecycle update every N requests (0 disables) — the
    #: mixed query/update stream that exercises epoch-keyed caching.
    update_every: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("distinct", "zipf"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.kind == "zipf" and self.s <= 0:
            raise ValueError(f"zipf exponent must be positive, got {self.s}")
        if self.population < 1:
            raise ValueError("workload population must be at least 1")
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"unknown arrival {self.arrival!r}; pick from {_ARRIVALS}"
            )
        if self.arrival != "closed" and self.rate <= 0:
            raise ValueError(f"{self.arrival} arrivals need a positive rate")
        if self.burst < 1:
            raise ValueError("burst size must be at least 1")
        if self.update_every < 0:
            raise ValueError("update_every must be non-negative")

    def queries(self, vocabulary: Sequence[str], count: int) -> list[list[str]]:
        """The request stream: ``count`` queries drawn per the model."""
        if self.kind == "distinct":
            return generate_queries(vocabulary, count, seed=self.seed)
        pool = generate_queries(vocabulary, self.population, seed=self.seed)
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = ranks**-self.s
        weights /= weights.sum()
        rng = np.random.default_rng(self.seed + 1)
        indices = rng.choice(len(pool), size=count, p=weights)
        return [list(pool[int(index)]) for index in indices]

    def schedule(self, count: int) -> list[float] | None:
        """Per-request start offsets in seconds, or None for closed loop."""
        if self.arrival == "closed":
            return None
        if self.arrival == "steady":
            return [index / self.rate for index in range(count)]
        if self.arrival == "burst":
            # Groups of `burst` arrive together; group g lands when a
            # steady stream at `rate` would have issued its g*burst-th
            # request, so the long-run average rate matches.
            return [
                (index // self.burst) * self.burst / self.rate
                for index in range(count)
            ]
        # ramp: instantaneous rate climbs linearly 0.2x -> 1.8x of
        # `rate`; arrival times accumulate the reciprocal rate.
        offsets: list[float] = []
        t = 0.0
        for index in range(count):
            offsets.append(t)
            fraction = index / max(count - 1, 1)
            t += 1.0 / (self.rate * (0.2 + 1.6 * fraction))
        return offsets

    def update_indices(self, count: int) -> set[int]:
        """Request indices before which a lifecycle update is injected."""
        if self.update_every <= 0:
            return set()
        return set(range(self.update_every, count, self.update_every))

    def describe(self) -> str:
        parts = [self.kind]
        if self.kind == "zipf":
            parts[0] = f"zipf:{self.s:g}"
            parts.append(f"pop={self.population}")
        if self.arrival != "closed":
            parts.append(f"arrival={self.arrival}")
            parts.append(f"rate={self.rate:g}")
        if self.arrival == "burst":
            parts.append(f"burst={self.burst}")
        if self.update_every:
            parts.append(f"update={self.update_every}")
        return ",".join(parts)


def parse_workload(text: str, seed: int = 0) -> WorkloadSpec:
    """Parse a ``--workload`` spec string.

    Grammar: ``kind[:s][,key=value...]`` — e.g. ``distinct``,
    ``zipf:1.1``, ``zipf:1.3,pop=256,arrival=burst,rate=200,burst=20``,
    ``zipf:1.1,update=150``. Keys: ``pop`` (population), ``arrival``,
    ``rate``, ``burst``, ``update`` (update_every), ``seed``.
    """
    parts = [part.strip() for part in str(text).split(",") if part.strip()]
    if not parts:
        raise ValueError("empty workload spec")
    head = parts[0]
    fields: dict = {"seed": seed}
    if ":" in head:
        kind, _, exponent = head.partition(":")
        try:
            fields["s"] = float(exponent)
        except ValueError as error:
            raise ValueError(
                f"invalid zipf exponent {exponent!r} in {text!r}"
            ) from error
        fields["kind"] = kind.lower()
    else:
        fields["kind"] = head.lower()
    names = {
        "pop": ("population", int),
        "arrival": ("arrival", lambda value: value.strip().lower()),
        "rate": ("rate", float),
        "burst": ("burst", int),
        "update": ("update_every", int),
        "seed": ("seed", int),
    }
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if not value:
            raise ValueError(f"workload option {part!r} needs key=value")
        key = key.strip().lower()
        if key not in names:
            raise ValueError(f"unknown workload option {key!r}")
        field, convert = names[key]
        try:
            fields[field] = convert(value)
        except ValueError as error:
            raise ValueError(f"bad workload option {part!r}") from error
    # Build once with every option applied — option order must not
    # matter (arrival=burst before its rate=... is still valid).
    return WorkloadSpec(**fields)


def service_vocabulary(service: SelectionService, limit: int = 5000) -> list[str]:
    """A word pool for query generation: the cell's interned vocabulary."""
    summaries = service.metasearcher.sampled_summaries
    if not summaries:
        raise ValueError(
            "cannot build a load-generation vocabulary: the service's cell "
            "has no sampled summaries (empty or misconfigured cell)"
        )
    first = next(iter(summaries.values()))
    words = first.vocab.to_list()
    return words[:limit] if len(words) > limit else words


def _is_shed(error: BaseException) -> bool:
    """Whether an error is admission control shedding, not a failure.

    In-process services raise :class:`ServiceOverloaded`; over HTTP the
    same condition arrives as a 429 (``ServingError.status``). Either
    way the request *was* answered — with "back off" — so load runs
    count it separately from errors and never abort on it.
    """
    if isinstance(error, ServiceOverloaded):
        return True
    return getattr(error, "status", None) == 429


def run_load(
    select: SelectFn,
    queries: Sequence[Sequence[str]],
    algorithm: str = "cori",
    strategy: str = "shrinkage",
    k: int = 10,
    concurrency: int = 1,
    clock: Callable[[], float] = time.perf_counter,
    raise_errors: bool = True,
    schedule: Sequence[float] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    on_request: Callable[[int], None] | None = None,
) -> dict:
    """Issue every query and summarize throughput/latency.

    Works against either an in-process service (``service.select``) or an
    HTTP client (``client.select``) — anything matching :data:`SelectFn`.

    Throughput accounting measures the *steady state*: the clock for
    ``qps`` starts at the first response's completion and counts the
    remaining ``n - 1`` responses, so one-time costs that land on the
    first request (connection setup, a server still settling after boot,
    lazy imports) inflate the first latency sample but never the reported
    throughput. ``wall_seconds`` keeps the whole-run wall including that
    ramp-up for reference.

    ``concurrency`` issues queries from that many threads (the request
    order interleaves, but every query is issued exactly once) — required
    to saturate a multi-worker server; a single serial client measures
    its own round-trip latency, not server capacity. ``clock`` is the
    monotonic time source, injectable for tests.

    Failed requests abort the run by re-raising the first error
    (``raise_errors=True``, the default — a load test against a broken
    server measures nothing). The abort is prompt at any concurrency: a
    shared stop flag is checked before each issue, so the first error
    stops *every* worker thread instead of only the one that saw it
    (the others would otherwise replay the full remaining stream against
    a broken server before the error finally surfaced after join). With
    ``raise_errors=False`` the run continues past failures and reports
    their count in the summary, which is what a resilience drill wants.

    ``schedule`` switches the run open-loop: entry ``i`` is request
    ``i``'s earliest start offset (seconds from run start), and issuing
    threads sleep until it — that is how a :class:`WorkloadSpec`'s
    steady/burst/ramp arrival patterns reach the wire. ``sleep`` is
    injectable alongside ``clock`` for tests. ``on_request`` is called
    with each request's index just before it is issued (exactly once
    per index) — the mixed query/update stream hook: the CLI injects
    mid-stream lifecycle updates from it.

    Shed requests (429 / :class:`ServiceOverloaded`) are counted in the
    summary's ``shed``, never in ``errors``, and never abort the run:
    being told to back off is admission control *working*.
    """
    import threading

    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    queries = [list(query) for query in queries]
    if schedule is not None and len(schedule) < len(queries):
        raise ValueError(
            f"schedule has {len(schedule)} offsets for {len(queries)} queries"
        )
    results: list[tuple[float, float, dict]] = []
    errors: list[BaseException] = []
    shed = 0
    lock = threading.Lock()
    cursor = iter(range(len(queries)))
    stop = threading.Event()

    def issue() -> None:
        nonlocal shed
        while not stop.is_set():
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            if schedule is not None:
                delay = start + schedule[index] - clock()
                if delay > 0:
                    sleep(delay)
            if on_request is not None:
                on_request(index)
            request_start = clock()
            try:
                response = select(queries[index], algorithm, strategy, k)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                if _is_shed(error):
                    with lock:
                        shed += 1
                    continue
                with lock:
                    errors.append(error)
                if raise_errors:
                    stop.set()
                    return
                continue
            request_end = clock()
            with lock:
                results.append((request_start, request_end, response))

    start = clock()
    if concurrency == 1:
        issue()
    else:
        threads = [
            threading.Thread(target=issue, daemon=True)
            for _ in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors and raise_errors:
        raise errors[0]
    wall = clock() - start

    latencies = [end - begin for begin, end, _ in results]
    degraded = sum(
        1 for _, _, response in results if response.get("degraded")
    )
    cache_hits = sum(
        1 for _, _, response in results if response.get("cached")
    )
    selected_total = sum(
        len(response.get("selected", ())) for _, _, response in results
    )
    completions = sorted(end for _, end, _ in results)
    requests = len(results)
    if requests > 1:
        measured = completions[-1] - completions[0]
        if measured > 0:
            qps = (requests - 1) / measured
        else:
            # Every completion landed on the same clock reading (an
            # all-cached run under a coarse or fake clock): the
            # steady-state estimator has no interval to divide by, so
            # fall back to whole-run wall-clock throughput instead of
            # reporting an absurd 0 qps for the fastest possible run.
            measured = wall
            qps = requests / wall if wall > 0 else 0.0
    else:
        measured = wall
        qps = requests / wall if wall > 0 else 0.0

    array = np.array(latencies, dtype=np.float64)
    return {
        "requests": requests,
        "algorithm": algorithm,
        "strategy": strategy,
        "k": k,
        "concurrency": concurrency,
        "wall_seconds": wall,
        "measured_seconds": measured,
        "qps": qps,
        "latency_mean_ms": float(array.mean()) * 1000.0 if requests else 0.0,
        "latency_p50_ms": float(np.percentile(array, 50)) * 1000.0
        if requests
        else 0.0,
        "latency_p90_ms": float(np.percentile(array, 90)) * 1000.0
        if requests
        else 0.0,
        "latency_p99_ms": float(np.percentile(array, 99)) * 1000.0
        if requests
        else 0.0,
        "degraded": degraded,
        "degraded_fraction": degraded / requests if requests else 0.0,
        "cache_hits": cache_hits,
        "cache_hit_rate": cache_hits / requests if requests else 0.0,
        "shed": shed,
        "shed_fraction": shed / (requests + shed) if requests + shed else 0.0,
        "issued": requests + shed + len(errors),
        "errors": len(errors),
        "mean_selected": selected_total / requests if requests else 0.0,
    }


def format_summary(summary: dict) -> str:
    """Human-readable one-block report of a load run."""
    return (
        f"load: {summary['requests']} requests "
        f"({summary['algorithm']}/{summary['strategy']}, k={summary['k']}, "
        f"c={summary.get('concurrency', 1)}) "
        f"in {summary['wall_seconds']:.2f}s = {summary['qps']:.0f} qps "
        f"(steady-state)\n"
        f"latency ms: mean {summary['latency_mean_ms']:.2f}  "
        f"p50 {summary['latency_p50_ms']:.2f}  "
        f"p90 {summary['latency_p90_ms']:.2f}  "
        f"p99 {summary['latency_p99_ms']:.2f}\n"
        f"degraded: {summary['degraded']} "
        f"({summary.get('degraded_fraction', 0.0):.1%})  "
        f"cache hits: {summary.get('cache_hits', 0)} "
        f"({summary.get('cache_hit_rate', 0.0):.1%})  "
        f"shed: {summary.get('shed', 0)} "
        f"({summary.get('shed_fraction', 0.0):.1%})  "
        f"errors: {summary.get('errors', 0)}  "
        f"mean selected: {summary['mean_selected']:.1f}"
    )
