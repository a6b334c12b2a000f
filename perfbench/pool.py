"""The ``pool-zipf-update`` workload: ``repro serve --workers 2`` over HTTP.

One client holds one keep-alive connection, as production clients do, so
one worker answers every select. A round is ``round_selects / 2``
Zipf-drawn selects, one hot swap that replaces a single database's
summary with itself, then as many selects again, so reads sit on both
sides of a write.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import sys
import time
from pathlib import Path

import checks
import tracing
from config import (
    FORMULA_REL_TOL,
    FORMULA_SAMPLE,
    K,
    POOL_WORKERS,
    REFERENCE_SAMPLE,
    SCALE,
    TREC,
)
from procs import BenchError, Child, child_env, pss_mb, shm_segments, wait_gone

READY = re.compile(r"ready on http://([\d.]+):(\d+) .*pids \[([\d, ]+)\]")
#: Re-asked after the last swap and compared with their first answers.
REPEATS_AFTER_SWAPS = 6


class Connection:
    """One keep-alive HTTP/1.1 connection to the pool."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=150.0)

    def post(self, path: str, payload: dict) -> tuple[float, int, dict]:
        body = json.dumps(payload)
        begin = time.perf_counter()
        self.conn.request("POST", path, body, {"Content-Type": "application/json"})
        reply = self.conn.getresponse()
        data = reply.read()
        elapsed = time.perf_counter() - begin
        return elapsed, reply.status, json.loads(data)

    def close(self) -> None:
        self.conn.close()


def serve_argv(store: Path, trace: bool) -> list[str]:
    args = [
        "serve",
        "--dataset", TREC,
        "--scale", SCALE,
        "--cache-dir", str(store),
        "--workers", str(POOL_WORKERS),
        "--port", "0",
        "--k", str(K),
        # No degradation deadline: a slow moment never changes the work
        # a request does.
        "--request-timeout", "0",
    ]
    if trace:
        return [sys.executable, str(Path(__file__).resolve().parent / "serve_traced.py"), *args]
    return [sys.executable, "-m", "repro", *args]


def select_payload(entry: dict) -> dict:
    return {
        "query": entry["query"],
        "algorithm": entry["algorithm"],
        "strategy": entry["strategy"],
        "k": K,
    }


def run(root: Path, run_dir: Path, store: Path, prepared_store: Path, plan: dict,
        workload: dict, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    from repro.serving.lifecycle import summary_payload

    problems: list[str] = []
    summaries, classifications, shrunk = load_cell(prepared_store)
    # The hot swap replaces a database's summary with itself: the whole
    # write path runs (EM, warm, shm pack, epoch flip, cache carry) and
    # every answer must stay bit-identical across it.
    payloads = {name: summary_payload(summaries[name]) for name in plan["swaps"][:3]}
    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    shm_before = shm_segments()
    env = child_env(root, {"PERFBENCH_TRACE_DIR": str(trace_dir)} if trace else None)
    server = Child(serve_argv(store, trace), env, root, run_dir / "serve.err")
    pids: list[int] = []
    connection = None
    try:
        line, _ = server.wait_line(lambda text: "ready on http://" in text, deadline)
        match = READY.search(line)
        if match is None:
            raise BenchError(f"unexpected ready line: {line!r}")
        host, port = match.group(1), int(match.group(2))
        pids = [server.proc.pid] + [int(p) for p in match.group(3).split(",")]
        connection = Connection(host, port)
        first = plan["warmup"][0]
        _, status, _ = connection.post("/select", select_payload(first))
        setup_s = time.monotonic() - server.started
        if status != 200:
            raise BenchError(f"first select answered {status}")
        for entry in plan["warmup"][1:]:
            connection.post("/select", select_payload(entry))
        peak_pss = pss_mb(pids)

        population = plan["population"]
        stream = plan["stream"]
        half = workload["round_selects"] // 2
        latencies: list[float] = []
        records: list[tuple[int, str | None, float]] = []
        first_answers: dict[int, tuple[int, dict]] = {}
        update_latencies: list[float] = []
        updates: list[dict] = []
        attempted = failed = hits = repeats = swaps = 0
        position = 0

        def select_round() -> None:
            nonlocal attempted, failed, hits, repeats, position
            for _ in range(half):
                index = stream[position % len(stream)]
                position += 1
                entry = population[index]
                attempted += 1
                latency, status, response = connection.post("/select", select_payload(entry))
                if status != 200:
                    failed += 1
                    problems.append(f"select answered {status}: {response.get('error')}")
                    continue
                latencies.append(latency)
                records.append((index, response.get("request_id"), latency))
                hits += bool(response.get("cached"))
                found = checks.structure_problems(response, K, None)
                if found:
                    problems.append(f"{entry['query']}: {found[0]}")
                seen = first_answers.get(index)
                if seen is None:
                    first_answers[index] = (swaps, response)
                else:
                    repeats += seen[0] != swaps
                    if not checks.same_answer(seen[1], response):
                        problems.append(f"{entry['query']}: a repeated request got another answer")

        started = time.monotonic()
        window_deadline = started + seconds
        # A round: half the selects, one hot swap of one database, the
        # other half; whole rounds until the window closes.
        for name in plan["swaps"]:
            select_round()
            if name not in payloads:
                payloads[name] = summary_payload(summaries[name])
            ops = [{"op": "replace", "name": name, "summary": payloads[name]}]
            attempted += 1
            latency, status, response = connection.post("/admin/update", {"ops": ops})
            if status != 200 or response.get("workers_flipped") != POOL_WORKERS:
                failed += 1
                problems.append(f"update of {name} answered {status}: {response.get('error')}")
            else:
                update_latencies.append(latency)
                updates.append(response)
            swaps += 1
            peak_pss = max(peak_pss, pss_mb(pids))
            select_round()
            if time.monotonic() >= window_deadline:
                break
        window_seconds = time.monotonic() - started

        # A request answered before the first swap, asked again after the
        # last one, must get the same answer.
        early = [i for i, (before, _) in first_answers.items() if before == 0]
        rng = random.Random(seed)
        for index in rng.sample(early, min(REPEATS_AFTER_SWAPS, len(early))):
            _, status, response = connection.post("/select", select_payload(population[index]))
            if status != 200 or not checks.same_answer(first_answers[index][1], response):
                problems.append(f"{population[index]['query']}: answer changed across the swaps")
        peak_pss = max(peak_pss, pss_mb(pids))
    finally:
        if connection is not None:
            connection.close()
        try:
            server.terminate(min(deadline, time.monotonic() + 30.0))
        finally:
            server.kill()
    leftover = wait_gone(pids, 5.0)
    if leftover:
        problems.append(f"server processes outlived the run: {leftover}")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"/dev/shm segments outlived the run: {sorted(leaked)}")

    answers = [(population[i], response) for i, (_, response) in first_answers.items()]
    problems.extend(reference_checks(summaries, classifications, shrunk, answers, seed))

    layers: dict = {}
    if trace:
        layers = traced_layers(trace_dir, server.proc.pid, records)
    layers["service.cache_hit_ratio"] = hits / max(len(latencies), 1)
    layers["lifecycle.em_runs"] = _mean([u.get("em_recomputed", 0) for u in updates])
    layers["lifecycle.retained"] = _mean([u.get("response_cache_retained", 0) for u in updates])
    return {
        "setups": [setup_s],
        "latencies": latencies,
        "update_latencies": update_latencies,
        "attempted": attempted,
        "failed": failed,
        "window_seconds": window_seconds,
        "peak_rss_mb": peak_pss,
        "problems": problems,
        "checked": {"repeats_across_swaps": repeats, "answers": len(answers)},
        "layers": layers,
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def load_cell(prepared_store: Path):
    """The trec4/bench cell's summaries, classifications and shrunk
    summaries, read from the pristine prepared store (never from the copy
    the server updates)."""
    from repro.evaluation import harness
    from repro.evaluation import store as store_mod

    store = store_mod.ArtifactStore(prepared_store)
    cell = (TREC, "qbs", False, SCALE)
    loaded = store.load_artifact(
        "summaries",
        store_mod.fingerprint(harness._summaries_config(*cell)),
        store_mod.summaries_from_payload,
    )
    shrunk = store.load_artifact(
        "shrunk",
        store_mod.fingerprint(harness._shrunk_config(*cell)),
        store_mod.shrunk_from_payload,
    )
    if loaded is None or shrunk is None:
        raise BenchError("prepared store lacks the summaries or shrunk artifacts")
    summaries, classifications = loaded
    return summaries, classifications, shrunk


def reference_checks(summaries, classifications, shrunk, answers: list, seed: int) -> list[str]:
    """Serial-reference and formula checks, made in this process."""
    from repro.corpus.hierarchy import default_hierarchy
    from repro.selection.metasearcher import Metasearcher

    metasearcher = Metasearcher(default_hierarchy(), summaries, classifications)
    problems: list[str] = []
    rng = random.Random(seed + 1)
    for entry, response in rng.sample(answers, min(REFERENCE_SAMPLE, len(answers))):
        reference = checks.serial_reference(
            metasearcher.make_scorer,
            entry["algorithm"],
            entry["strategy"],
            response["query"],
            summaries,
            shrunk,
            metasearcher.adaptive_config,
        )
        problems.extend(
            f"{entry['algorithm']}/{entry['strategy']} {response['query']}: {p}"
            for p in checks.reference_problems(response, reference, K)
        )
    plain = [(e, r) for e, r in answers if e["strategy"] == "plain"]
    formulas = checks.Formulas(summaries)
    for entry, response in rng.sample(plain, min(FORMULA_SAMPLE, len(plain))):
        problems.extend(
            checks.formula_problems(
                response, formulas.scores(entry["algorithm"], response["query"]), FORMULA_REL_TOL
            )
        )
    return problems


def traced_layers(trace_dir: Path, dispatcher_pid: int, records: list) -> dict:
    """Per-layer figures from the server processes' span files, merged with
    the client's latencies by request id."""
    client = {request_id: latency for _, request_id, latency in records}
    layers: dict = {}
    merged: dict[str, float] = {}
    requests = 0.0
    transport = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        pid = int(path.stem.split("-")[1])
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans = payload["spans"]
        counts = {(name, root): value for name, root, value in payload["counts"]}
        if pid == dispatcher_pid:
            layers.update(tracing.setup_layers(spans))
            layers.update(tracing.update_layers(spans))
            continue
        roots = [
            span for span in tracing.SpanTree(spans).roots(tracing.SELECT) if span[5] in client
        ]
        if not roots:
            continue
        for span in roots:
            transport.append(client[span[5]] - (span[3] - span[2]))
        part = tracing.request_layers(spans, counts, roots)
        n = part.pop("requests")
        requests += n
        for key, value in part.items():
            merged[key] = merged.get(key, 0.0) + value * n
    if requests:
        layers.update({key: value / requests for key, value in merged.items()})
        layers["requests"] = requests
    layers["transport.ms"] = _mean(transport) * 1000.0
    if "store.load_s" not in layers or not transport:
        raise BenchError("a traced server process wrote no span file")
    return layers
