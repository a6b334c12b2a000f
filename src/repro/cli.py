"""Command-line interface: ``python -m repro <command>``.

Exposes the experiment harness without writing Python:

* ``summary-quality`` — the Section 6.1 metrics for one cell of the
  evaluation matrix, shrunk vs. unshrunk.
* ``selection`` — mean Rk curves for one dataset/algorithm across the
  selection strategies.
* ``lambdas`` — the EM mixture weights of a database's shrunk summary.
* ``bench`` — end-to-end timed run of one cell (or the whole matrix with
  ``--matrix``) with cache/parallelism instrumentation; ``--json`` emits
  the run's full JSONL trace on stdout, ``--trajectory FILE`` appends a
  machine-readable record and warns about >20% timer regressions.
* ``testbed`` — synthesize a large ``universe-<N>`` cell (closed-form
  summaries, log-uniform sizes) and report its shape; ``--probe`` checks
  a pruned probe query per algorithm against the serial ranking and
  reports the peak resident memory.
* ``verify-prune`` — prove full and pruned answers bit-identical to the
  serial ranking across algorithms, strategies, and sampled queries.
* ``serve`` — long-lived selection server: preload one cell, then answer
  ``POST /select`` queries over HTTP from the batched score matrices;
  ``--prune`` routes queries through the pruned exact top-k engine.
* ``query`` — one-shot client for a running ``serve`` process.
* ``update`` — apply a lifecycle op (add/remove/replace/resample/
  restore) to a running server; the cell is hot-swapped copy-on-write.
* ``loadgen`` — replay a distinct-query stream (in-process or against
  ``--url``) and record throughput/latency, optionally into the bench
  trajectory.
* ``trace`` — summarize a JSONL trace file (or stdin) as an aggregated
  top-down span tree plus metrics tables.
* ``cache`` — inspect or clear an on-disk artifact store, including its
  accumulated per-kind hit/miss/bytes traffic.
* ``info`` — the library's layout and the experiment matrix.

Every harness-backed command accepts ``--cache-dir`` (persist artifacts
across invocations), ``--no-cache`` (force rebuilds), ``--jobs``
(fan per-database work out over worker processes), and ``--trace-out
FILE`` (record a hierarchical span trace of the run). With ``--trace-out``
or ``--json``, :func:`main` installs a trace collector and wraps the
command in a root span named ``repro.<command>``, so every span of the
run — including those shipped back from worker processes — resolves to a
single rooted tree.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np


def _dataset_argument(value: str) -> str:
    """trec4 | trec6 | web | universe-<N> — validated at parse time."""
    if value in ("trec4", "trec6", "web"):
        return value
    if value.startswith("universe-"):
        suffix = value[len("universe-"):]
        if suffix.isdigit() and int(suffix) > 0:
            return value
    raise argparse.ArgumentTypeError(
        f"{value!r} is not trec4, trec6, web, or universe-<N>"
    )


def _add_cell_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", type=_dataset_argument, default="trec4", metavar="NAME",
        help="trec4, trec6, web, or universe-<N> (a synthetic N-database "
        "universe with closed-form summaries)",
    )
    parser.add_argument("--sampler", choices=("qbs", "fps"), default="qbs")
    parser.add_argument(
        "--freq-est", action="store_true",
        help="apply Appendix A frequency estimation",
    )
    parser.add_argument(
        "--scale", choices=("small", "bench", "paper"), default="small",
        help="testbed scale (small is seconds, bench is minutes)",
    )
    _add_runtime_arguments(parser)


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_service_config` reads (serve and loadgen)."""
    parser.add_argument(
        "--k", type=int, default=10,
        help="databases to select per query",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=0.5, metavar="SECONDS",
        help="per-request budget before adaptive requests degrade to "
        "plain scoring (<= 0 disables)",
    )
    parser.add_argument(
        "--response-cache", type=int, default=1024, metavar="N",
        help="bound on the response LRU cache",
    )
    parser.add_argument(
        "--prune", action="store_true",
        help="answer queries through the pruned exact top-k engine "
        "(bit-identical to a full scan, sublinear candidate touch)",
    )
    parser.add_argument(
        "--topk", type=int, default=None, metavar="K",
        help="truncate returned rankings to their first K entries",
    )
    parser.add_argument(
        "--strategies", metavar="LIST",
        help="comma-separated strategies to serve (default plain,"
        "shrinkage,universal; plain-only skips the EM shrinkage build)",
    )
    parser.add_argument(
        "--slow-query-log", metavar="FILE",
        help="append requests slower than the threshold to this JSONL "
        "file (bounded by one rotation; REPRO_SLOW_QUERY_LOG also works)",
    )
    parser.add_argument(
        "--slow-query-threshold-ms", type=float, default=100.0,
        metavar="MS", help="slow-query log threshold in milliseconds",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admit at most N concurrent selects; excess requests wait "
        "in a bounded queue and shed with 429 + Retry-After when it "
        "fills (default: no admission control)",
    )
    parser.add_argument(
        "--admission-queue", type=int, default=16, metavar="N",
        help="bounded accept-queue depth ahead of the inflight limit",
    )
    parser.add_argument(
        "--admission-timeout-ms", type=float, default=50.0, metavar="MS",
        help="longest a queued request waits for an admission slot "
        "before shedding",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for per-database sampling/shrinkage",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact store root; artifacts persist across invocations",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore any artifact store; rebuild everything",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write a JSONL span trace of the run to FILE",
    )


def _configure_harness(args: argparse.Namespace) -> None:
    """Apply --jobs/--cache-dir/--no-cache to the harness."""
    from repro.evaluation import harness

    if args.no_cache:
        harness.configure(cache_dir=False)
    elif args.cache_dir:
        harness.configure(cache_dir=args.cache_dir)
    harness.configure(jobs=args.jobs)


def _cmd_summary_quality(args: argparse.Namespace) -> int:
    from repro.evaluation import harness

    _configure_harness(args)
    cell = harness.get_cell(args.dataset, args.sampler, args.freq_est, args.scale)
    plain = harness.summary_quality(cell, shrinkage=False)
    shrunk = harness.summary_quality(cell, shrinkage=True)
    print(
        f"Summary quality — {args.dataset} / {args.sampler.upper()} / "
        f"freq-est={'yes' if args.freq_est else 'no'} / scale={args.scale}"
    )
    print(f"{'metric':<22} {'unshrunk':>9} {'shrunk':>9}")
    for label, field in [
        ("weighted recall", "weighted_recall"),
        ("unweighted recall", "unweighted_recall"),
        ("weighted precision", "weighted_precision"),
        ("unweighted precision", "unweighted_precision"),
        ("Spearman (SRCC)", "spearman"),
        ("KL divergence", "kl"),
    ]:
        print(
            f"{label:<22} {getattr(plain, field):>9.3f} "
            f"{getattr(shrunk, field):>9.3f}"
        )
    return 0


def _cmd_selection(args: argparse.Namespace) -> int:
    from repro.evaluation import harness
    from repro.evaluation.reporting import format_rk_series

    _configure_harness(args)
    cell = harness.get_cell(args.dataset, args.sampler, args.freq_est, args.scale)
    series = {}
    for strategy in ("plain", "hierarchical", "shrinkage", "universal"):
        series[strategy.capitalize()] = harness.rk_experiment(
            cell, args.algorithm, strategy, k_max=args.k
        )
    print(
        format_rk_series(
            f"Mean Rk — {args.dataset} / {args.sampler.upper()} / "
            f"{args.algorithm} / scale={args.scale}",
            series,
        )
    )
    rate = harness.shrinkage_application_rate(cell, args.algorithm)
    print(f"adaptive shrinkage application rate: {rate * 100:.1f}%")
    significance = harness.rk_significance(
        cell, args.algorithm, "shrinkage", "plain", k_max=args.k
    )
    print(
        f"shrinkage vs plain: mean Rk difference "
        f"{significance.mean_difference:+.3f}, paired t-test "
        f"p = {significance.p_value:.4f}"
    )
    return 0


def _cmd_lambdas(args: argparse.Namespace) -> int:
    from repro.evaluation import harness

    _configure_harness(args)
    cell = harness.get_cell(args.dataset, args.sampler, args.freq_est, args.scale)
    names = sorted(cell.summaries)
    name = args.database or names[0]
    if name not in cell.summaries:
        print(f"unknown database {name!r}; try one of {names[:5]} ...")
        return 2
    shrunk = cell.metasearcher.shrunk_summaries[name]
    print(f"Mixture weights (lambda) for {name}:")
    for component, weight in shrunk.mixture_weights().items():
        print(f"  {component:<28} {weight:.3f}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.evaluation import harness
    from repro.evaluation import trajectory as trajectory_mod
    from repro.evaluation.instrument import get_collector, get_instrumentation

    # With --json the human-readable tables are suppressed: stdout carries
    # only the JSONL event stream (written by main) so the output can be
    # piped straight into ``repro trace``.
    json_mode = bool(getattr(args, "json", False))
    emit = (lambda *a, **k: None) if json_mode else print

    _configure_harness(args)
    store = harness.get_config().store
    start = time.perf_counter()

    if args.matrix:
        cells = [
            (dataset, sampler, freq_est)
            for dataset in ("trec4", "trec6", "web")
            for sampler in ("qbs", "fps")
            for freq_est in (False, True)
        ]
        if args.jobs > 1:
            from repro.evaluation.parallel import evaluate_cells_parallel

            results = evaluate_cells_parallel(
                cells, args.scale, args.jobs, args.algorithm, args.k
            )
        else:
            results = []
            for dataset, sampler, freq_est in cells:
                cell = harness.get_cell(dataset, sampler, freq_est, args.scale)
                harness.ensure_shrunk(cell)
                results.append(
                    {
                        "dataset": dataset,
                        "sampler": sampler,
                        "frequency_estimation": freq_est,
                        "quality_plain": harness.summary_quality(cell, False),
                        "quality_shrunk": harness.summary_quality(cell, True),
                        "rk": {
                            strategy: harness.rk_experiment(
                                cell, args.algorithm, strategy, args.k
                            )
                            for strategy in ("plain", "shrinkage")
                        },
                    }
                )
        emit(
            f"Matrix bench — scale={args.scale} / {args.algorithm} / "
            f"jobs={args.jobs}"
        )
        emit(
            f"{'cell':<18} {'wrecall':>8} {'+shrunk':>8} "
            f"{'Rk plain':>9} {'Rk shrunk':>9}"
        )
        for result in results:
            label = (
                f"{result['dataset']}/{result['sampler']}"
                f"{'/fe' if result['frequency_estimation'] else ''}"
            )
            rk_plain = float(np.nanmean(result["rk"]["plain"]))
            rk_shrunk = float(np.nanmean(result["rk"]["shrinkage"]))
            emit(
                f"{label:<18} {result['quality_plain'].weighted_recall:>8.3f} "
                f"{result['quality_shrunk'].weighted_recall:>8.3f} "
                f"{rk_plain:>9.3f} {rk_shrunk:>9.3f}"
            )
    else:
        cell = harness.get_cell(
            args.dataset, args.sampler, args.freq_est, args.scale
        )
        harness.ensure_shrunk(cell)
        rk = {
            strategy: harness.rk_experiment(
                cell, args.algorithm, strategy, args.k
            )
            for strategy in ("plain", "shrinkage")
        }
        emit(
            f"Bench — {args.dataset} / {args.sampler.upper()} / "
            f"freq-est={'yes' if args.freq_est else 'no'} / "
            f"scale={args.scale} / {args.algorithm} / jobs={args.jobs}"
        )
        emit(
            f"mean Rk (k<={args.k}): plain "
            f"{float(np.nanmean(rk['plain'])):.3f}, shrinkage "
            f"{float(np.nanmean(rk['shrinkage'])):.3f}"
        )

    wall = time.perf_counter() - start
    emit(f"wall time: {wall:.3f} s")
    if store is not None:
        emit(f"artifact store: {store.root}")
    emit()
    emit(get_instrumentation().report())

    context = {
        "kind": "bench-matrix" if args.matrix else "bench-cell",
        "scale": args.scale,
        "jobs": args.jobs,
        "algorithm": args.algorithm,
        "k": args.k,
    }
    if not args.matrix:
        context["dataset"] = args.dataset
        context["sampler"] = args.sampler
        context["frequency_estimation"] = args.freq_est
    collector = get_collector()
    record = trajectory_mod.build_record(
        context, wall, run_id=collector.run_id if collector else None
    )
    # Picked up by main() so the record rides along in the trace output.
    args.bench_record = record

    if args.trajectory:
        out = sys.stderr if json_mode else sys.stdout
        trajectory_mod.append_and_compare(args.trajectory, record, out=out)
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    import time

    from repro.evaluation import harness

    _configure_harness(args)
    dataset = f"universe-{args.databases}"
    start = time.perf_counter()
    cell = harness.get_cell(dataset, args.sampler, args.freq_est, args.scale)
    build_wall = time.perf_counter() - start
    summaries = cell.metasearcher.sampled_summaries
    first = next(iter(summaries.values()))
    sizes = np.array([s.size for s in summaries.values()], dtype=np.int64)
    postings = sum(
        len(summary.regime_arrays("df")[0]) for summary in summaries.values()
    )
    print(f"Universe testbed — {dataset} at scale={args.scale}")
    print(f"databases:       {len(summaries)}")
    print(f"vocabulary:      {len(first.vocab.to_list())} words")
    print(
        f"sizes:           {int(sizes.min())} .. {int(sizes.max())} docs "
        f"(median {int(np.median(sizes))}, total {int(sizes.sum())})"
    )
    print(
        f"postings:        {postings} "
        f"({postings / len(summaries):.0f} per database)"
    )
    print(f"synthesis wall:  {build_wall:.3f} s")

    if args.probe:
        from repro.selection import oracle

        # One probe per algorithm warms every pruned plain engine, so both
        # regimes' column stores (df for bGlOSS and CORI, tf for LM) are
        # built before the peak is read.
        metasearcher = cell.metasearcher
        vocabulary = first.vocab.to_list()
        terms = [vocabulary[len(vocabulary) // 3], vocabulary[-7]]
        identical_all = True
        for algorithm in ("bgloss", "cori", "lm"):
            start = time.perf_counter()
            pruned = metasearcher.select(terms, algorithm=algorithm,
                                         strategy="plain", k=args.k, prune=True)
            pruned_wall = time.perf_counter() - start
            start = time.perf_counter()
            report = oracle.sweep(
                metasearcher, [lambda *_: pruned], [terms], algorithm,
                "plain", args.k,
            )
            serial_wall = time.perf_counter() - start
            identical = report["wrong"] == 0
            identical_all &= identical
            print(
                f"probe query:     {' '.join(terms)} ({algorithm}/plain, "
                f"k={args.k}) — {'bit-identical' if identical else 'MISMATCH'}"
            )
            for example in report["examples"]:
                print(f"  - {example}")
            scored = pruned.candidates_scored
            if scored is not None:
                print(
                    f"candidates:      {scored} of {len(summaries)} scored "
                    f"({scored / len(summaries) * 100:.1f}%)"
                )
            print(
                f"probe wall:      pruned {pruned_wall:.3f} s "
                f"(includes any store build), serial {serial_wall:.3f} s"
            )
        peak = _peak_resident_mb()
        if peak is not None:
            print(f"peak resident:   {peak:.1f} MB (VmHWM)")
        if not identical_all:
            return 1
    return 0


def _peak_resident_mb() -> float | None:
    """This process's peak resident set size (VmHWM) in MB; None where
    ``/proc/self/status`` does not report it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _cmd_verify_prune(args: argparse.Namespace) -> int:
    from repro.evaluation import harness
    from repro.selection import oracle
    from repro.serving import loadgen

    _configure_harness(args)
    cell = harness.get_cell(args.dataset, args.sampler, args.freq_est, args.scale)
    metasearcher = cell.metasearcher
    algorithms = tuple(
        name.strip() for name in args.algorithms.split(",") if name.strip()
    )
    strategies = tuple(
        name.strip() for name in args.strategies.split(",") if name.strip()
    )
    needs_shrunk = any(strategy != "plain" for strategy in strategies)
    if needs_shrunk and harness.universe_size(args.dataset) is None:
        # Universe cells have no sampling pipeline behind them; the
        # metasearcher shrinks lazily on first adaptive selection.
        harness.ensure_shrunk(cell)
    summaries = metasearcher.sampled_summaries
    vocabulary = next(iter(summaries.values())).vocab.to_list()[:5000]
    queries = loadgen.generate_queries(vocabulary, args.queries, seed=args.seed)

    total = len(summaries)
    scored_fractions = []

    def full(terms, algorithm, strategy, k):
        return metasearcher.select(
            terms, algorithm=algorithm, strategy=strategy, k=k
        )

    def pruned(terms, algorithm, strategy, k):
        outcome = metasearcher.select(
            terms, algorithm=algorithm, strategy=strategy, k=k, prune=True
        )
        if outcome.candidates_scored is not None:
            scored_fractions.append(outcome.candidates_scored / total)
        return outcome

    checked = 0
    mismatches = 0
    for algorithm in algorithms:
        for strategy in strategies:
            report = oracle.sweep(
                metasearcher, [full, pruned], queries, algorithm, strategy,
                args.k,
            )
            checked += report["checked"]
            mismatches += report["wrong"]
            for example in report["examples"]:
                print(f"MISMATCH {example}")

    pruned_runs = len(scored_fractions)
    mean_fraction = float(np.mean(scored_fractions)) if scored_fractions else 1.0
    print(
        f"verify-prune: {checked} selections checked "
        f"({len(algorithms)} algorithms x {len(strategies)} strategies x "
        f"{len(queries)} queries), {mismatches} mismatches"
    )
    print(
        f"verify-prune: pruned engine engaged on {pruned_runs}/{checked}; "
        f"mean candidates scored {mean_fraction * 100:.1f}% "
        f"of {total} databases"
    )
    within = True
    if args.max_scored_fraction is not None:
        within = mean_fraction <= args.max_scored_fraction
        print(
            f"verify-prune: mean scored fraction {mean_fraction:.3f} "
            f"{'within' if within else 'FAILED, exceeds'} target "
            f"{args.max_scored_fraction:.3f}"
        )
    return 0 if mismatches == 0 and within else 1


def _service_config(args: argparse.Namespace):
    """The ServiceConfig of a command built with :func:`_add_service_arguments`."""
    from repro.serving.service import ServiceConfig

    extra = {}
    if args.strategies:
        extra["strategies"] = tuple(
            name.strip() for name in args.strategies.split(",") if name.strip()
        )
    return ServiceConfig(
        dataset=args.dataset,
        sampler=args.sampler,
        frequency_estimation=args.freq_est,
        scale=args.scale,
        default_k=args.k,
        request_timeout_seconds=(
            None if args.request_timeout <= 0 else args.request_timeout
        ),
        response_cache_size=args.response_cache,
        prune=args.prune,
        ranking_limit=args.topk,
        slow_query_log_path=args.slow_query_log,
        slow_query_threshold_seconds=args.slow_query_threshold_ms / 1000.0,
        max_inflight=args.max_inflight,
        admission_queue=args.admission_queue,
        admission_timeout_seconds=args.admission_timeout_ms / 1000.0,
        **extra,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.server import make_server
    from repro.serving.service import SelectionService

    _configure_harness(args)
    print(
        f"serve: preloading {args.dataset}/{args.sampler}"
        f"{'/fe' if args.freq_est else ''} at scale={args.scale} ...",
        flush=True,
    )
    service = SelectionService.from_harness(_service_config(args))
    endpoints = "POST /select, POST /admin/update, GET /healthz, GET /stats"
    databases = len(service.metasearcher.sampled_summaries)

    if args.workers > 1:
        import signal
        import time

        from repro.serving.workers import WorkerPool, fork_available

        if not fork_available():
            print("serve: --workers requires a platform with os.fork")
            return 2
        pool = WorkerPool(
            service,
            host=args.host,
            port=args.port,
            workers=args.workers,
            verbose=args.verbose,
        )
        pool.start()
        # SIGTERM must unwind through the finally below — the default
        # handling would skip pool.shutdown() and strand /dev/shm
        # segments until reboot.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
        print(
            f"serve: ready on {pool.url} "
            f"({databases} databases; {args.workers} workers, "
            f"pids {pool.worker_pids}; {endpoints})",
            flush=True,
        )
        try:
            while True:
                time.sleep(1.0)
        except (KeyboardInterrupt, SystemExit):
            print("serve: shutting down", flush=True)
        finally:
            pool.shutdown()
        return 0

    server = make_server(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(
        f"serve: ready on http://{host}:{port} "
        f"({databases} databases; {endpoints})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("serve: shutting down", flush=True)
    finally:
        server.server_close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serving.client import ServingClient, ServingError

    client = ServingClient(args.url, timeout=args.timeout)
    if args.wait:
        client.wait_until_ready()
    try:
        response = client.select(
            args.terms,
            algorithm=args.algorithm,
            strategy=args.strategy,
            k=args.k,
        )
    except ServingError as error:
        print(f"query: {error}")
        return 2
    try:
        _print_answer(response, args)
    except BrokenPipeError:  # e.g. `repro query … | head -3`
        pass
    return 0


def _print_answer(response: dict, args: argparse.Namespace) -> None:
    if args.json:
        import json as json_module

        print(json_module.dumps(response, indent=2))
        return
    flags = []
    if response.get("degraded"):
        flags.append("degraded to plain")
    if response.get("cached"):
        flags.append("cached")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    print(
        f"query: {' '.join(response['query'])} — "
        f"{response['algorithm']}/{response['strategy']}, "
        f"k={response['k']}{suffix}"
    )
    selected = set(response["selected"])
    for rank, entry in enumerate(response["ranking"][: args.k], start=1):
        marker = "*" if entry["name"] in selected else " "
        print(f"  {rank:>3} {marker} {entry['name']:<12} {entry['score']:.6g}")
    if not selected:
        print("  (no database scored above its floor)")


def _cmd_update(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.serving.client import ServingClient, ServingError

    op: dict = {"op": args.operation, "name": args.name}
    if args.operation in ("add", "replace"):
        if not args.summary_file:
            print(f"update: {args.operation} requires --summary-file")
            return 2
        with open(args.summary_file, encoding="utf-8") as handle:
            op["summary"] = json_module.load(handle)
    if args.operation == "add":
        if not args.path:
            print("update: add requires --path (e.g. Root/Health/Diseases)")
            return 2
        op["path"] = args.path.split("/")
    if args.operation == "resample":
        op["seed"] = args.seed

    client = ServingClient(args.url, timeout=args.timeout)
    if args.wait:
        client.wait_until_ready()
    try:
        response = client.update(
            [op], verify=args.verify, timeout=args.timeout
        )
    except ServingError as error:
        print(f"update: {error}")
        return 2
    if args.json:
        print(json_module.dumps(response, indent=2))
    else:
        print(
            f"update: {args.operation} {args.name} — snapshot "
            f"v{response['snapshot_version']}, "
            f"{response['databases']} databases"
        )
        print(
            f"update: em recomputed {response['em_recomputed']}, "
            f"shrunk reused {response['shrunk_reused']}, "
            f"changed paths {response['changed_paths']}, "
            f"build {response['build_seconds']:.3f}s, "
            f"swap {response['swap_seconds'] * 1000:.2f}ms"
        )
    verification = response.get("verification")
    if verification is not None and not args.json:
        if verification["verified"]:
            print(
                "update: verification PASSED — bit-identical to a "
                f"from-scratch rebuild ({verification['selections_checked']} "
                "selections checked, max lambda delta "
                f"{verification['max_lambda_delta']:g})"
            )
        else:
            print("update: verification FAILED:")
            for mismatch in verification["mismatches"]:
                print(f"  - {mismatch}")

    if args.trajectory:
        from repro.evaluation import trajectory as trajectory_mod

        context = {
            "kind": "serve-update",
            "operation": args.operation,
            "verify": args.verify,
        }
        record = trajectory_mod.build_record(
            context, response["build_seconds"]
        )
        record["update"] = {
            key: value
            for key, value in response.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        trajectory_mod.append_and_compare(args.trajectory, record)
    if verification is not None and not verification["verified"]:
        return 1
    return 0


def _select_ok_count(metrics_text: str) -> int:
    """The ok-status /select request count from a /metrics exposition."""
    key = 'repro_serve_http_requests_total{endpoint="select",status="ok"}'
    for line in metrics_text.splitlines():
        if line.startswith(key + " "):
            return int(float(line.rsplit(" ", 1)[1]))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import os

    from repro.evaluation import trajectory as trajectory_mod
    from repro.evaluation.instrument import get_instrumentation
    from repro.serving import loadgen

    pool = None
    vocabulary = None
    count_requests = None
    service_obj = None
    update_fn = None
    victim = None
    try:
        if args.url:
            from repro.serving.client import ServingClient

            client = ServingClient(args.url, timeout=args.timeout)
            client.wait_until_ready()
            health = client.healthz()
            select = (
                lambda terms, algorithm, strategy, k: client.select(
                    terms, algorithm=algorithm, strategy=strategy, k=k
                )
            )
            label = args.url
            databases = health.get("databases", 0)
        elif args.workers > 0:
            # Boot a worker pool right here and drive it over HTTP — the
            # one-command way to record per-worker-count serve-load
            # trajectory points (workers=1 measures the same HTTP path,
            # so the 1-vs-N comparison isolates the worker count).
            from repro.serving.client import ServingClient
            from repro.serving.service import SelectionService
            from repro.serving.workers import WorkerPool

            _configure_harness(args)
            service = SelectionService.from_harness(_service_config(args))
            pool = WorkerPool(service, workers=args.workers)
            pool.start()
            client = ServingClient(pool.url, timeout=args.timeout)
            vocabulary = loadgen.service_vocabulary(service)
            select = (
                lambda terms, algorithm, strategy, k: client.select(
                    terms, algorithm=algorithm, strategy=strategy, k=k
                )
            )
            label = f"{pool.url} ({args.workers} workers)"
            databases = len(service.metasearcher.sampled_summaries)
            service_obj = service
            victim = list(service.metasearcher.sampled_summaries)[-1]
            update_fn = (
                lambda ops, verify: client.update(
                    ops, verify=verify, timeout=max(args.timeout, 120.0)
                )
            )
            # A /metrics scrape (fresh-polled by the dispatcher) before
            # and after the run cross-checks the telemetry pipeline:
            # the aggregated request count must match the load
            # generator's completed count EXACTLY.
            count_requests = lambda: _select_ok_count(client.metrics())  # noqa: E731
        else:
            from repro.serving.service import SelectionService

            _configure_harness(args)
            service = SelectionService.from_harness(_service_config(args))
            vocabulary = loadgen.service_vocabulary(service)
            select = (
                lambda terms, algorithm, strategy, k: service.select(
                    terms, algorithm=algorithm, strategy=strategy, k=k
                )
            )
            label = "in-process"
            databases = len(service.metasearcher.sampled_summaries)
            service_obj = service
            victim = list(service.metasearcher.sampled_summaries)[-1]
            update_fn = (
                lambda ops, verify: service.apply_update(ops, verify=verify)
            )
        if vocabulary is None:
            # Remote server: generate from generic word shapes; the OOV
            # and serial markers keep the stream distinct either way.
            vocabulary = [f"word{i:04d}" for i in range(500)]
        spec = None
        schedule = None
        on_request = None
        update_results = []
        update_errors = []
        if args.workload:
            spec = loadgen.parse_workload(args.workload, seed=args.seed)
            queries = spec.queries(vocabulary, args.requests)
            schedule = spec.schedule(args.requests)
            update_indices = spec.update_indices(args.requests)
            if update_indices:
                if update_fn is None or victim is None:
                    raise SystemExit(
                        "loadgen: mixed query/update workloads need a "
                        "target with known database names (in-process "
                        "or --workers; not --url)"
                    )
                import threading

                update_lock = threading.Lock()
                # A cancelling remove+restore of the last database: a
                # real hot swap (epoch bump, retention decision) whose
                # final cell holds the same summary objects, so the
                # served stream's correctness is independently checkable
                # with --verify-responses afterwards.
                update_ops = [
                    {"op": "remove", "name": victim},
                    {"op": "restore", "name": victim},
                ]

                def on_request(index):
                    if index not in update_indices:
                        return
                    try:
                        result = update_fn(update_ops, args.verify_updates)
                    except Exception as error:  # noqa: BLE001 - reported
                        with update_lock:
                            update_errors.append((index, error))
                    else:
                        with update_lock:
                            update_results.append((index, result))
        else:
            queries = loadgen.generate_queries(
                vocabulary, args.requests, seed=args.seed
            )
        requests_before = count_requests() if count_requests else 0
        summary = loadgen.run_load(
            select,
            queries,
            args.algorithm,
            args.strategy,
            args.k,
            concurrency=args.concurrency,
            schedule=schedule,
            on_request=on_request,
        )
        requests_after = count_requests() if count_requests else 0
        sweep = None
        if args.verify_responses:
            # After the metrics count above (the sweep's own selects
            # would add to it) and before the pool goes down. The
            # reference is the (dispatcher's) cell after the last swap.
            from repro.selection import oracle
            from repro.serving.service import canonical_terms, normalize_query

            distinct = list(
                dict.fromkeys(
                    canonical_terms(normalize_query(query)) for query in queries
                )
            )
            sweep = oracle.sweep(
                service_obj.metasearcher,
                [select],
                distinct,
                args.algorithm,
                args.strategy,
                args.k,
                limit=service_obj.config.ranking_limit,
            )
    finally:
        if pool is not None:
            pool.shutdown()
    print(f"target: {label} ({databases} databases)")
    if spec is not None:
        print(f"workload: {spec.describe()}")
    print(loadgen.format_summary(summary))
    update_verify_failed = False
    for index, error in update_errors:
        update_verify_failed = True
        print(
            f"workload: update @{index} FAILED: "
            f"{type(error).__name__}: {error}"
        )
    for index, result in update_results:
        line = (
            f"workload: update @{index} -> epoch "
            f"{result.get('snapshot_version', '?')}, retained "
            f"{result.get('response_cache_retained', 0)} cache entries, "
            f"em recomputed {result.get('em_recomputed', '?')}"
        )
        verification = result.get("verification")
        if verification is not None:
            verified = bool(verification.get("verified"))
            update_verify_failed = update_verify_failed or not verified
            line += ", verification " + ("PASSED" if verified else "FAILED")
        print(line)
    if sweep is not None:
        status = "[OK]" if sweep["wrong"] == 0 else "[FAIL]"
        print(
            f"workload: wrong responses {sweep['wrong']} of "
            f"{sweep['checked']} distinct queries vs the serial ranking "
            f"{status}"
        )
        for example in sweep["examples"]:
            print(f"  - mismatched query: {example}")
    metrics_exact = None
    if count_requests is not None:
        counted = requests_after - requests_before
        metrics_exact = counted == summary["requests"]
        verdict = (
            "EXACT MATCH"
            if metrics_exact
            else f"MISMATCH (counted {counted})"
        )
        print(
            f"metrics cross-check: pool /metrics counted {counted} "
            f"select requests, loadgen completed {summary['requests']} "
            f"— {verdict}"
        )

    if args.trajectory:
        context = {
            "kind": "serve-workload" if spec is not None else "serve-load",
            "workload": spec.describe() if spec is not None else "distinct",
            "target": "http" if args.url else (
                "workers" if args.workers > 0 else "in-process"
            ),
            "workers": args.workers if not args.url else 0,
            "concurrency": args.concurrency,
            "dataset": args.dataset,
            "sampler": args.sampler,
            "frequency_estimation": args.freq_est,
            "scale": args.scale,
            "algorithm": args.algorithm,
            "strategy": args.strategy,
            "requests": args.requests,
            "k": args.k,
            "prune": bool(args.prune),
            "topk": args.topk,
            "served_strategies": args.strategies or "all",
        }
        # The record's wall is the *load* wall — service preload and
        # worker boot happen before run_load's clock starts, so the
        # trajectory tracks serving throughput, not startup cost.
        record = trajectory_mod.build_record(context, summary["wall_seconds"])
        record["load"] = {
            key: value
            for key, value in summary.items()
            if isinstance(value, (int, float))
        }
        if metrics_exact is not None:
            record["load"]["metrics_exact"] = bool(metrics_exact)
        try:
            record["load"]["cores"] = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            record["load"]["cores"] = os.cpu_count() or 1
        if spec is not None:
            record["workload"] = {
                "spec": spec.describe(),
                "updates": len(update_results),
                "update_failures": len(update_errors),
                "cache_retained": sum(
                    int(result.get("response_cache_retained", 0))
                    for _, result in update_results
                ),
            }
            if sweep is not None:
                record["workload"]["checked"] = sweep["checked"]
                record["workload"]["wrong_responses"] = sweep["wrong"]
        trajectory_mod.append_and_compare(args.trajectory, record)
    # Keep the histograms visible when tracing is active.
    report = get_instrumentation().report()
    if "serve.handler_seconds" in report:
        print()
        print(report)
    failed = (
        metrics_exact is False
        or update_verify_failed
        or (sweep is not None and sweep["wrong"] > 0)
    )
    return 1 if failed else 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.evaluation import dashboard as dashboard_mod

    trajectory = args.trajectory
    if trajectory and not Path(trajectory).is_file():
        print(f"dashboard: no trajectory file at {trajectory} (charts skipped)")
        trajectory = None
    try:
        summary = dashboard_mod.write_dashboard(
            args.out,
            trajectory_path=trajectory,
            store_stats_path=args.store_stats,
            metrics_url=args.metrics_url,
            title=args.title,
        )
    except OSError as error:
        print(f"dashboard: {error}")
        return 2
    live = " + live /metrics" if summary["live_metrics"] else ""
    print(
        f"dashboard: wrote {summary['path']} ({summary['bytes']} bytes; "
        f"{summary['records']} trajectory records, "
        f"{summary['store_kinds']} store kinds{live})"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.evaluation.store import (
        PIPELINE_VERSION,
        REPRESENTATION_VERSION,
        STORE_VERSION,
        ArtifactStore,
    )

    if not args.cache_dir:
        print("cache: --cache-dir is required")
        return 2
    store = ArtifactStore(args.cache_dir)
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {store.root}")
        return 0
    entries = store.entries()
    print(f"artifact store: {store.root}")
    print(
        f"versions: store={STORE_VERSION} pipeline={PIPELINE_VERSION} "
        f"representation={REPRESENTATION_VERSION}"
    )
    stats = store.stats()
    if stats:
        print()
        print(
            f"{'traffic':<12} {'hits':>8} {'misses':>8} {'corrupt':>8} "
            f"{'saves':>8} {'read B':>12} {'written B':>12}"
        )
        for kind, totals in stats.items():
            print(
                f"{kind:<12} {totals['hits']:>8d} {totals['misses']:>8d} "
                f"{totals['corrupt']:>8d} {totals['saves']:>8d} "
                f"{totals['bytes_read']:>12d} {totals['bytes_written']:>12d}"
            )
        print()
    if not entries:
        print("(empty)")
        return 0
    by_kind: dict[str, list] = {}
    for entry in entries:
        by_kind.setdefault(entry.kind, []).append(entry)
    print(f"{'kind':<12} {'entries':>8} {'bytes':>12}")
    for kind, kind_entries in by_kind.items():
        total = sum(e.bytes for e in kind_entries)
        print(f"{kind:<12} {len(kind_entries):>8d} {total:>12d}")
    if args.verbose:
        print()
        for entry in entries:
            print(f"{entry.kind:<12} {entry.key} {entry.bytes:>12d}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.evaluation.traceview import load_trace, render_trace

    if args.file in (None, "-"):
        lines = sys.stdin.read().splitlines()
    else:
        path = Path(args.file)
        if not path.is_file():
            print(f"trace: no such file: {path}")
            return 2
        lines = path.read_text(encoding="utf-8").splitlines()
    trace = load_trace(lines)
    if trace.run is None and not trace.spans:
        print("trace: no trace events found in input")
        return 2
    try:
        print(render_trace(trace, max_depth=args.depth))
    except BrokenPipeError:  # e.g. `repro trace file | head`
        pass
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.evaluation.harness import DATASETS, SAMPLERS, SCALES

    print(__doc__)
    print(f"datasets: {', '.join(DATASETS)}")
    print(f"samplers: {', '.join(SAMPLERS)}")
    print(f"scales:   {', '.join(SCALES)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shrinkage-based content summaries (SIGMOD 2004 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    quality = commands.add_parser(
        "summary-quality", help="Section 6.1 metrics for one matrix cell"
    )
    _add_cell_arguments(quality)
    quality.set_defaults(handler=_cmd_summary_quality)

    selection = commands.add_parser(
        "selection", help="mean Rk curves across selection strategies"
    )
    _add_cell_arguments(selection)
    selection.add_argument(
        "--algorithm", choices=("bgloss", "cori", "lm"), default="cori"
    )
    selection.add_argument("--k", type=int, default=10)
    selection.set_defaults(handler=_cmd_selection)

    lambdas = commands.add_parser(
        "lambdas", help="EM mixture weights of one database"
    )
    _add_cell_arguments(lambdas)
    lambdas.add_argument("--database", help="database name (default: first)")
    lambdas.set_defaults(handler=_cmd_lambdas)

    bench = commands.add_parser(
        "bench",
        help="timed end-to-end cell run with cache/parallel instrumentation",
    )
    _add_cell_arguments(bench)
    bench.add_argument(
        "--algorithm", choices=("bgloss", "cori", "lm"), default="cori"
    )
    bench.add_argument("--k", type=int, default=10)
    bench.add_argument(
        "--matrix", action="store_true",
        help="run the full dataset x sampler x freq-est matrix",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="emit the run's JSONL trace on stdout instead of tables "
        "(pipe into `repro trace`)",
    )
    bench.add_argument(
        "--trajectory", metavar="FILE",
        help="append a machine-readable record to this trajectory file and "
        "warn on >20%% timer regressions vs the previous comparable record",
    )
    bench.set_defaults(handler=_cmd_bench)

    testbed = commands.add_parser(
        "testbed",
        help="synthesize a large universe-<N> cell and report its shape",
    )
    testbed.add_argument(
        "--databases", type=int, default=10_000, metavar="N",
        help="universe size (log-uniform database sizes, closed-form "
        "summaries; memory is bounded by columnar arrays)",
    )
    testbed.add_argument("--sampler", choices=("qbs", "fps"), default="qbs")
    testbed.add_argument(
        "--freq-est", action="store_true",
        help="apply Appendix A frequency estimation",
    )
    testbed.add_argument(
        "--scale", choices=("small", "bench", "paper"), default="small",
        help="corpus scale controlling the vocabulary (small ~ 9k words)",
    )
    testbed.add_argument(
        "--probe", action="store_true",
        help="check a pruned probe query per algorithm against the "
        "serial ranking and report the touch rate and the peak resident "
        "memory (VmHWM)",
    )
    testbed.add_argument("--k", type=int, default=10)
    _add_runtime_arguments(testbed)
    testbed.set_defaults(handler=_cmd_testbed)

    verify_prune = commands.add_parser(
        "verify-prune",
        help="prove full and pruned selection bit-identical to the "
        "serial ranking",
    )
    _add_cell_arguments(verify_prune)
    verify_prune.add_argument(
        "--algorithms", default="bgloss,cori,lm", metavar="LIST",
        help="comma-separated algorithms to check",
    )
    verify_prune.add_argument(
        "--strategies", default="plain,shrinkage,universal", metavar="LIST",
        help="comma-separated strategies to check",
    )
    verify_prune.add_argument(
        "--queries", type=int, default=25, metavar="N",
        help="distinct sample queries (includes OOV terms)",
    )
    verify_prune.add_argument("--k", type=int, default=10)
    verify_prune.add_argument("--seed", type=int, default=0)
    verify_prune.add_argument(
        "--max-scored-fraction", type=float, default=None, metavar="F",
        help="fail (exit 1) when the mean scored fraction exceeds F "
        "(e.g. 0.5)",
    )
    verify_prune.set_defaults(handler=_cmd_verify_prune)

    serve = commands.add_parser(
        "serve",
        help="long-lived selection server over a preloaded cell",
    )
    _add_cell_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks a free one)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="serve from N forked worker processes sharing one "
        "shared-memory snapshot (1 = classic single process)",
    )
    _add_service_arguments(serve)
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(handler=_cmd_serve)

    query = commands.add_parser(
        "query", help="send one selection query to a running server"
    )
    query.add_argument("terms", nargs="+", help="query terms")
    query.add_argument(
        "--url", default="http://127.0.0.1:8642", help="server base URL"
    )
    query.add_argument(
        "--algorithm", choices=("bgloss", "cori", "lm"), default="cori"
    )
    query.add_argument(
        "--strategy", choices=("plain", "shrinkage", "universal"),
        default="shrinkage",
    )
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--timeout", type=float, default=10.0)
    query.add_argument(
        "--wait", action="store_true",
        help="poll /healthz until the server is ready first",
    )
    query.add_argument(
        "--json", action="store_true", help="print the raw JSON response"
    )
    query.set_defaults(handler=_cmd_query)

    update = commands.add_parser(
        "update",
        help="apply a lifecycle op to a running server (hot swap)",
    )
    update.add_argument(
        "operation",
        choices=("add", "remove", "replace", "resample", "restore"),
        help="lifecycle operation to apply",
    )
    update.add_argument("name", help="database name the op targets")
    update.add_argument(
        "--path", metavar="A/B/C",
        help="category path for add, '/'-separated (e.g. Root/Health)",
    )
    update.add_argument(
        "--summary-file", metavar="FILE",
        help="standalone summary JSON payload for add/replace",
    )
    update.add_argument(
        "--seed", type=int, default=1,
        help="resample seed (varies the fresh sample's query stream)",
    )
    update.add_argument(
        "--url", default="http://127.0.0.1:8642", help="server base URL"
    )
    update.add_argument(
        "--verify", action="store_true",
        help="ask the server to prove bit-identity against a rebuild "
        "before publishing the swap",
    )
    update.add_argument(
        "--timeout", type=float, default=120.0,
        help="HTTP timeout (updates rebuild engines; verify adds more)",
    )
    update.add_argument(
        "--wait", action="store_true",
        help="poll /healthz until the server is ready first",
    )
    update.add_argument(
        "--json", action="store_true", help="print the raw JSON response"
    )
    update.add_argument(
        "--trajectory", metavar="FILE",
        help="append a serve-update record with the swap latency",
    )
    update.set_defaults(handler=_cmd_update)

    loadgen = commands.add_parser(
        "loadgen",
        help="replay a distinct-query stream against the serving path",
    )
    _add_cell_arguments(loadgen)
    target = loadgen.add_mutually_exclusive_group()
    target.add_argument(
        "--url", help="target a running server instead of in-process"
    )
    loadgen.add_argument(
        "--requests", type=int, default=500, metavar="N",
        help="number of distinct queries to issue",
    )
    loadgen.add_argument(
        "--algorithm", choices=("bgloss", "cori", "lm"), default="cori"
    )
    loadgen.add_argument(
        "--strategy", choices=("plain", "shrinkage", "universal"),
        default="shrinkage",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--timeout", type=float, default=10.0)
    loadgen.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="boot an N-worker pool in this process and load it over "
        "HTTP (0 = call the service in-process; ignored with --url)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=1, metavar="N",
        help="issue queries from N client threads (needed to saturate "
        "a multi-worker server)",
    )
    _add_service_arguments(loadgen)
    loadgen.add_argument(
        "--workload", metavar="SPEC",
        help="traffic model instead of the distinct stream: "
        "kind[:s][,key=value...] — e.g. zipf:1.1, "
        "zipf:1.3,pop=256,arrival=burst,rate=200,burst=20, "
        "zipf:1.1,update=150 (inject a lifecycle update every 150 "
        "requests); keys: pop, arrival (steady/burst/ramp), rate, "
        "burst, update, seed",
    )
    loadgen.add_argument(
        "--verify-updates", action="store_true",
        help="prove bit-identity against a rebuild on every mid-stream "
        "workload update before publishing the swap",
    )
    target.add_argument(
        "--verify-responses", action="store_true",
        help="after the run, sweep the stream's distinct queries and "
        "bit-compare served (possibly cached) responses against the "
        "serial ranking of the cell after the last swap (in-process or "
        "--workers N; not --url)",
    )
    loadgen.add_argument(
        "--trajectory", metavar="FILE",
        help="append a serve-load (or serve-workload) record and warn "
        "on latency regressions",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    dashboard = commands.add_parser(
        "dashboard",
        help="render a self-contained HTML dashboard from recorded "
        "trajectory/stats artifacts",
    )
    dashboard.add_argument(
        "--trajectory", default="BENCH_trajectory.json", metavar="FILE",
        help="bench trajectory JSON to chart (perf across PRs)",
    )
    dashboard.add_argument(
        "--store-stats", metavar="FILE",
        help="an artifact store stats.json to tabulate",
    )
    dashboard.add_argument(
        "--metrics-url", metavar="URL",
        help="optionally scrape a live server's /metrics into the page "
        "(off by default: the render needs zero network)",
    )
    dashboard.add_argument(
        "--out", default="dashboard.html", metavar="FILE",
        help="output HTML path",
    )
    dashboard.add_argument(
        "--title", default="repro serving dashboard", metavar="TEXT"
    )
    dashboard.set_defaults(handler=_cmd_dashboard)

    trace = commands.add_parser(
        "trace", help="summarize a JSONL trace as a top-down span tree"
    )
    trace.add_argument(
        "file", nargs="?", default="-",
        help="trace file from --trace-out (default: stdin)",
    )
    trace.add_argument(
        "--depth", type=int, default=6, metavar="N",
        help="maximum tree depth to print",
    )
    trace.set_defaults(handler=_cmd_trace)

    cache = commands.add_parser(
        "cache", help="inspect or clear an on-disk artifact store"
    )
    cache.add_argument("--cache-dir", metavar="DIR")
    cache.add_argument(
        "--clear", action="store_true", help="delete every stored artifact"
    )
    cache.add_argument(
        "--verbose", action="store_true", help="list individual artifacts"
    )
    cache.set_defaults(handler=_cmd_cache)

    info = commands.add_parser("info", help="library overview")
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    When ``--trace-out`` or ``--json`` is given, the whole command runs
    under an installed trace collector inside a root span named
    ``repro.<command>``; the resulting event stream is written as JSONL
    to the trace file and/or stdout. ``REPRO_TRACE_MEMORY=1`` adds
    tracemalloc deltas to every span (slower; off by default).
    """
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    json_mode = bool(getattr(args, "json", False))
    if not trace_out and not json_mode:
        return args.handler(args)

    import json as json_module
    import os

    from repro.evaluation.instrument import (
        TraceCollector,
        get_instrumentation,
        install_collector,
        span,
        trace_events,
        uninstall_collector,
    )

    collector = install_collector(
        TraceCollector(
            track_memory=bool(os.environ.get("REPRO_TRACE_MEMORY"))
        )
    )
    try:
        with span(f"repro.{args.command}"):
            code = args.handler(args)
    finally:
        uninstall_collector()

    extras = []
    record = getattr(args, "bench_record", None)
    if record is not None:
        extras.append({"type": "record", **record})
    events = trace_events(collector, get_instrumentation(), extras)
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(
                    json_module.dumps(event, separators=(",", ":")) + "\n"
                )
        print(f"trace: {len(events)} events -> {trace_out}", file=sys.stderr)
    if json_mode:
        try:
            for event in events:
                sys.stdout.write(
                    json_module.dumps(event, separators=(",", ":")) + "\n"
                )
        except BrokenPipeError:  # e.g. `repro bench --json | head`
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
