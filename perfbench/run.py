"""Run one workload of the benchmark for one seed.

    python3 perfbench/run.py --workload trec4-adaptive --seed 1 --seconds 16 --trace 0

Run from the repository root. The first run for a given source tree
prepares the artifact store and word lists (untimed, a minute or so);
every run then copies the store afresh, generates its queries from the
seed, measures for ``--seconds`` seconds, checks the answers and prints
one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import stats  # noqa: E402
from config import DATASET_WORD_CAPS, TREC, WORKLOADS  # noqa: E402
from procs import BenchError, Child, child_env, shm_segments  # noqa: E402
from queries import inprocess_plan, load_words, pool_plan  # noqa: E402

#: Seconds a run may take once its prepared inputs exist.
RUN_BUDGET = 165.0
#: The first run in a checkout also prepares the store.
PREPARE_BUDGET = 850.0
#: Upper bound on pool rounds one plan provides for.
MAX_ROUNDS = 40

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
PER_LAYER = {
    "store.load_s": "s",
    "harness.cell_s": "s",
    "corpus.synthesize_s": "s",
    "service.warmup_s": "s",
    "workers.start_s": "s",
    "service.self_ms": "ms/request",
    "service.cache_hit_ratio": "ratio",
    "adaptive.moments_ms": "ms/request",
    "adaptive.posteriors": "count/request",
    "adaptive.decisions": "count/request",
    "selection.floors_ms": "ms/request",
    "selection.rank_ms": "ms/request",
    "selection.serial_rank_ms": "ms/request",
    "selection.serial_fallbacks": "count/request",
    "topk.candidates": "rows/request",
    "topk.full_scan_ratio": "ratio",
    "transport.ms": "ms/request",
    "update_ms": "ms",
    "lifecycle.apply_ms": "ms/update",
    "lifecycle.em_runs": "count/update",
    "lifecycle.warm_ms": "ms/update",
    "shm.pack_ms": "ms/update",
    "workers.flip_ms": "ms/update",
    "lifecycle.retained": "entries/update",
}


#: The benchmark's own files that shape prepared inputs and query plans.
PREPARE_SOURCES = ("config.py", "prepare.py", "queries.py")


def source_digest(root: Path) -> str:
    """Digest of the program's sources and of the benchmark files that
    shape its inputs: prepared inputs are keyed by it, so a store made by
    other code is never read."""
    digest = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + [HERE / name for name in PREPARE_SOURCES]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def ensure_prepared(root: Path, state: Path, digest: str) -> Path:
    prepared = state / f"prepared-{digest}"
    if (prepared / "READY").is_file():
        return prepared
    state.mkdir(parents=True, exist_ok=True)
    for stale in state.glob("prepared-*"):
        shutil.rmtree(stale)
    for stale in (state / "queries").glob("*.json"):
        stale.unlink()
    building = state / f"building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    print(f"perfbench: preparing inputs for source digest {digest} ...", flush=True)
    child = Child(
        [sys.executable, str(HERE / "prepare.py"), str(building)],
        child_env(root),
        root,
        state / "prepare.err",
    )
    try:
        if child.wait(time.monotonic() + PREPARE_BUDGET) != 0:
            raise BenchError(f"prepare failed: {child.stderr_tail()}")
    finally:
        child.kill()
    while (line := child.lines.get()) is not None:
        print(line, flush=True)
    (building / "READY").write_text(digest, encoding="utf-8")
    building.rename(prepared)
    return prepared


def ensure_plan(state: Path, prepared: Path, digest: str, name: str, seed: int) -> Path:
    path = state / "queries" / f"{name}-{seed}-{digest}.json"
    if path.is_file():
        return path
    workload = WORKLOADS[name]
    words = load_words(prepared / f"words-{workload['dataset']}.json.gz")
    if workload["kind"] == "pool":
        plan = pool_plan(
            words,
            seed,
            population=workload["population"],
            exponent=workload["zipf"],
            strategy_mix=workload["mix"],
            selects=workload["round_selects"] * MAX_ROUNDS,
            swaps=MAX_ROUNDS,
            warmup=workload["warmup"],
        )
    else:
        plan = inprocess_plan(words, seed, workload["warmup"], workload["queries"])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(plan), encoding="utf-8")
    tmp.replace(path)
    return path


def run_inprocess(root: Path, run_dir: Path, prepared: Path, plan: Path, name: str,
                  seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    store = None
    if workload["dataset"] == TREC:
        store = run_dir / "store"
    env = child_env(root)

    def launch(tag: str, extra: list[str]) -> Child:
        if store is not None:
            # A fresh copy per set-up: nothing one process writes into the
            # store is ever read by the next.
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(prepared / "store", store)
        argv = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed)]
        if store is not None:
            argv += ["--store", str(store)]
        return Child(argv + extra, env, root, run_dir / f"{tag}.err")

    out = run_dir / "child.json"
    main = launch("main", [
        "--plan", str(plan),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--out", str(out),
    ])
    try:
        _, ready = main.wait_line(lambda line: line == "READY", deadline)
        setups = [ready - main.started]
        if main.wait(deadline) != 0:
            raise BenchError(f"serving process failed: {main.stderr_tail()}")
    finally:
        main.kill()
    result = json.loads(out.read_text(encoding="utf-8"))
    for index in range(workload["setups"] - 1):
        probe = launch(f"probe{index}", ["--probe"])
        try:
            _, ready = probe.wait_line(lambda line: line == "READY", deadline)
            setups.append(ready - probe.started)
            if probe.wait(deadline) != 0:
                raise BenchError(f"set-up probe failed: {probe.stderr_tail()}")
        finally:
            probe.kill()
    result["setups"] = setups
    return result


def timed_latencies(result: dict) -> list[float]:
    """The latencies the end-to-end metrics come from: in-process, scaled
    to the reference host speed; in the pool, as measured."""
    if "kernels" in result:
        return hostspeed.normalize(result["latencies"], result["blocks"], result["kernels"])
    return result["latencies"]


def end_to_end(result: dict) -> dict:
    latencies = timed_latencies(result)
    return {
        "setup_s": stats.median(result["setups"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "qps": stats.qps(latencies),
        "latency_p50_ms": stats.percentile(latencies, 50.0) * 1000.0,
        "latency_p90_ms": stats.percentile(latencies, 90.0) * 1000.0,
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    pruned = layers.get("count.topk.pruned", 0.0)
    updates = result.get("update_latencies") or []
    return {
        "store.load_s": layers.get("store.load_s", 0.0),
        "harness.cell_s": layers.get("harness.cell_s", 0.0),
        "corpus.synthesize_s": layers.get("corpus.synthesize_s", 0.0),
        "service.warmup_s": layers.get("service.warmup_s", 0.0),
        "workers.start_s": layers.get("workers.start_s", 0.0),
        "service.self_ms": layers.get("self.service.select", 0.0),
        "service.cache_hit_ratio": layers.get("service.cache_hit_ratio", 0.0),
        "adaptive.moments_ms": layers.get("total.adaptive.moments", 0.0),
        "adaptive.posteriors": layers.get("count.adaptive.posteriors", 0.0),
        "adaptive.decisions": layers.get("count.adaptive.decisions", 0.0),
        "selection.floors_ms": layers.get("total.selection.floors", 0.0),
        "selection.rank_ms": layers.get("total.selection.rank", 0.0)
        + layers.get("total.selection.topk", 0.0),
        "selection.serial_rank_ms": layers.get("total.selection.serial_rank", 0.0),
        "selection.serial_fallbacks": layers.get("count.selection.serial_fallbacks", 0.0),
        "topk.candidates": layers.get("count.topk.candidates", 0.0),
        "topk.full_scan_ratio": (
            layers.get("count.topk.full_scans", 0.0) / pruned if pruned else 0.0
        ),
        "transport.ms": layers.get("transport.ms", 0.0),
        "update_ms": stats.median(updates) * 1000.0 if updates else 0.0,
        "lifecycle.apply_ms": layers.get("lifecycle.apply_ms", 0.0),
        "lifecycle.em_runs": layers.get("lifecycle.em_runs", 0.0),
        "lifecycle.warm_ms": layers.get("lifecycle.warm_ms", 0.0),
        "shm.pack_ms": layers.get("shm.pack_ms", 0.0),
        "workers.flip_ms": layers.get("workers.flip_ms", 0.0),
        "lifecycle.retained": layers.get("lifecycle.retained", 0.0),
    }


def describe(name: str, result: dict, e2e: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    latencies = result["latencies"]
    summary = stats.latency_summary(latencies)
    print(
        f"perfbench: {name}: {len(latencies)} selects in {result['window_seconds']:.1f} s; "
        f"p50 {summary['p50_ms']:.3f} ms, p90 {summary['p90_ms']:.3f} ms, "
        f"p99 {summary['p99_ms']:.3f} ms, mean {summary['mean_ms']:.3f} ms; "
        f"setups {[round(s, 3) for s in result['setups']]} s; "
        f"peak {e2e['peak_rss_mb']:.1f} MB"
    )
    if "kernels" in result:
        kernel = stats.median(result["kernels"])
        print(
            f"perfbench: host kernel median {kernel * 1000.0:.3f} ms over "
            f"{len(result['kernels'])} samples (reference "
            f"{hostspeed.REFERENCE_SECONDS * 1000.0:.3f} ms); at the reference speed: "
            f"qps {e2e['qps']:.2f}, p50 {e2e['latency_p50_ms']:.3f} ms, "
            f"p90 {e2e['latency_p90_ms']:.3f} ms; as measured: qps {stats.qps(latencies):.2f}"
        )
    if result.get("update_latencies"):
        print(
            "perfbench: updates "
            f"{[round(u * 1000.0, 1) for u in result['update_latencies']]} ms"
        )
    layers = result.get("layers") or {}
    selfs = {k[5:]: v for k, v in layers.items() if k.startswith("self.")}
    if selfs:
        parts = ", ".join(f"{k} {v:.4f}" for k, v in sorted(selfs.items()))
        print(f"perfbench: traced self ms/request: {parts}; sum {sum(selfs.values()):.4f}")
    print(f"perfbench: checked {result.get('checked')}")
    for problem in result["problems"][:10]:
        print(f"perfbench: PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    # The pool workload's reference checks import the program here.
    sys.path.insert(0, str(root / "src"))
    state = root / ".perfbench"
    digest = source_digest(root)
    prepared = ensure_prepared(root, state, digest)
    if not all((prepared / f"words-{d}.json.gz").is_file() for d in DATASET_WORD_CAPS):
        raise BenchError("prepared inputs are incomplete")
    # The run's own budget starts once the inputs exist.
    deadline = time.monotonic() + RUN_BUDGET
    plan = ensure_plan(state, prepared, digest, args.workload, args.seed)

    run_dir = state / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    shm_before = shm_segments()
    try:
        if WORKLOADS[args.workload]["kind"] == "pool":
            import pool

            store = run_dir / "store"
            shutil.copytree(prepared / "store", store)
            result = pool.run(
                root, run_dir, store, prepared / "store",
                json.loads(plan.read_text(encoding="utf-8")),
                WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), deadline,
            )
        else:
            result = run_inprocess(
                root, run_dir, prepared, plan, args.workload,
                args.seed, args.seconds, bool(args.trace), deadline,
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    leaked = shm_segments() - shm_before
    if leaked:
        result["problems"].append(f"/dev/shm segments outlived the run: {sorted(leaked)}")

    e2e = end_to_end(result)
    describe(args.workload, result, e2e)
    if args.trace:
        values, units = per_layer(result), PER_LAYER
    else:
        values, units = e2e, END_TO_END
    correct = not result["problems"] and result["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(3)
