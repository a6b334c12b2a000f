"""One in-process serving process: set up, answer, time, check.

``run.py`` starts this in a fresh interpreter per set-up. It builds a
``SelectionService`` the way ``repro serve`` does, answers one select and
prints ``READY`` (the parent times launch to that line as ``setup_s``).
With ``--probe`` it stops there. Otherwise it warms up, answers the timed
queries with one closed-loop client, sampling the host's speed between
blocks of selects (``hostspeed.py``), then checks a seeded sample of the
answers and writes the raw figures to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from config import (  # noqa: E402
    FORMULA_REL_TOL,
    FORMULA_SAMPLE,
    K,
    REFERENCE_SAMPLE,
    SCALE,
    WORKLOADS,
)
from queries import ALGORITHMS  # noqa: E402

#: Answers kept for the post-window checks: the first KEEP_HEAD, then
#: every KEEP_STRIDE-th, so memory stays flat however fast selects run.
KEEP_HEAD = 300
KEEP_STRIDE = 50


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def build_service(workload: dict, store: str | None):
    from repro.evaluation import harness
    from repro.serving.service import SelectionService, ServiceConfig

    harness.configure(cache_dir=store if store else False)
    config = ServiceConfig(
        dataset=workload["dataset"],
        scale=SCALE,
        default_k=K,
        # No degradation deadline: a slow moment never changes the work
        # a request does.
        request_timeout_seconds=None,
        prune=workload["prune"],
        ranking_limit=workload["ranking_limit"],
        strategies=tuple(workload["strategies"]),
    )
    return SelectionService.from_harness(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--store")
    parser.add_argument("--plan")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    strategy = workload["strategy"]

    tracer = tracing.instrument(tracing.Tracer()) if args.trace else None
    service = build_service(workload, args.store)
    service.select(["perfbench"], algorithm="bgloss", strategy=strategy)
    print("READY", flush=True)
    if args.probe:
        return 0

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    for i, terms in enumerate(plan["warmup"]):
        service.select(terms, algorithm=ALGORITHMS[i % 3], strategy=strategy)
        hostspeed.measure()
    setup_layers = tracing.setup_layers(tracer.spans) if tracer else {}
    if tracer:
        tracer.forget()

    queries = plan["queries"]
    latencies: list[float] = []
    # blocks[j]: the index of the kernel sample taken after latency j.
    blocks: list[int] = []
    kernels: list[float] = []
    kept: list[tuple[str, dict]] = []
    problems: list[str] = []
    failed = 0
    attempted = 0
    index = 0
    clock = time.perf_counter
    started = time.monotonic()
    deadline = started + args.seconds
    block_started = clock()
    # Whole rounds: one select per algorithm, so every run attempts the
    # same mix of operations.
    while True:
        for algorithm in ALGORITHMS:
            terms = queries[index % len(queries)]
            attempted += 1
            try:
                begin = clock()
                response = service.select(terms, algorithm=algorithm, strategy=strategy)
                latencies.append(clock() - begin)
                blocks.append(len(kernels))
            except Exception as error:  # noqa: BLE001 - counted, reported
                failed += 1
                problems.append(f"select failed: {type(error).__name__}: {error}")
                index += 1
                continue
            found = checks.structure_problems(response, K, workload["ranking_limit"])
            if found:
                problems.append(f"{terms}: {found[0]}")
            if response.get("cached"):
                problems.append(f"{terms}: distinct query answered from the cache")
            if index < KEEP_HEAD or index % KEEP_STRIDE == 0:
                kept.append((algorithm, response))
            index += 1
        if time.monotonic() >= deadline:
            break
        if clock() - block_started >= hostspeed.BLOCK_SECONDS:
            kernels.append(hostspeed.measure())
            block_started = clock()
    kernels.append(hostspeed.measure())
    window_seconds = time.monotonic() - started
    rss = peak_rss_mb()

    layers: dict = {}
    if tracer:
        roots = tracing.SpanTree(tracer.spans).roots(tracing.SELECT)
        layers = tracing.request_layers(tracer.spans, tracer.counts, roots)
        layers.update(setup_layers)
        tracer.uninstall()

    metasearcher = service.metasearcher
    rng = random.Random(args.seed)
    sample = rng.sample(kept, min(REFERENCE_SAMPLE, len(kept)))
    for algorithm, response in sample:
        again = service.select(response["query"], algorithm=algorithm, strategy=strategy)
        if not checks.same_answer(response, again):
            problems.append(f"{response['query']}: a repeated request got another answer")
        reference = checks.serial_reference(
            metasearcher.make_scorer,
            algorithm,
            strategy,
            response["query"],
            metasearcher.sampled_summaries,
            metasearcher.shrunk_summaries if strategy != "plain" else None,
            metasearcher.adaptive_config,
        )
        problems.extend(
            f"{algorithm} {response['query']}: {p}"
            for p in checks.reference_problems(response, reference, K)
        )

    formulas = checks.Formulas(metasearcher.sampled_summaries)
    for algorithm, response in rng.sample(kept, min(FORMULA_SAMPLE, len(kept))):
        if strategy != "plain":
            # The timed answers here are adaptive; ask the fixed-set
            # (plain) question for the same terms.
            response = service.select(response["query"], algorithm=algorithm, strategy="plain")
        problems.extend(
            checks.formula_problems(
                response,
                formulas.scores(algorithm, response["query"]),
                FORMULA_REL_TOL,
            )
        )

    result = {
        "latencies": latencies,
        "blocks": blocks,
        "kernels": kernels,
        "attempted": attempted,
        "failed": failed,
        "window_seconds": window_seconds,
        "peak_rss_mb": rss,
        "problems": problems,
        "checked": {"reference": len(sample), "formula": min(FORMULA_SAMPLE, len(kept))},
        "layers": layers,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
