"""Tests for repro.cli."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.evaluation import harness
from repro.evaluation.store import ArtifactStore


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_summary_quality_defaults(self):
        args = build_parser().parse_args(["summary-quality"])
        assert args.dataset == "trec4"
        assert args.sampler == "qbs"
        assert args.scale == "small"
        assert not args.freq_est

    def test_selection_arguments(self):
        args = build_parser().parse_args(
            ["selection", "--dataset", "trec6", "--algorithm", "lm", "--k", "5"]
        )
        assert args.algorithm == "lm"
        assert args.k == 5

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["selection", "--dataset", "trec99"])

    def test_runtime_arguments(self):
        args = build_parser().parse_args(
            ["bench", "--jobs", "3", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 3
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache
        assert not args.matrix

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.algorithm == "cori"
        assert args.k == 10

    def test_bench_matrix_flag(self):
        args = build_parser().parse_args(["bench", "--matrix"])
        assert args.matrix

    def test_trace_out_is_a_runtime_argument(self):
        args = build_parser().parse_args(
            ["bench", "--trace-out", "/tmp/t.jsonl"]
        )
        assert args.trace_out == "/tmp/t.jsonl"

    def test_bench_json_and_trajectory_flags(self):
        args = build_parser().parse_args(
            ["bench", "--json", "--trajectory", "/tmp/traj.json"]
        )
        assert args.json
        assert args.trajectory == "/tmp/traj.json"

    def test_trace_subcommand_defaults_to_stdin(self):
        args = build_parser().parse_args(["trace"])
        assert args.file == "-"
        assert args.depth == 6
        args = build_parser().parse_args(["trace", "t.jsonl", "--depth", "3"])
        assert args.file == "t.jsonl"
        assert args.depth == 3

    def test_cache_arguments(self):
        args = build_parser().parse_args(
            ["cache", "--cache-dir", "/tmp/x", "--clear", "--verbose"]
        )
        assert args.cache_dir == "/tmp/x"
        assert args.clear
        assert args.verbose


    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--scale", "small", "--port", "0",
             "--request-timeout", "0.1", "--response-cache", "32"]
        )
        assert args.port == 0
        assert args.host == "127.0.0.1"
        assert args.request_timeout == 0.1
        assert args.response_cache == 32

    def test_query_arguments(self):
        args = build_parser().parse_args(
            ["query", "breast", "cancer", "--algorithm", "lm",
             "--strategy", "plain", "--k", "3", "--wait", "--json"]
        )
        assert args.terms == ["breast", "cancer"]
        assert args.algorithm == "lm"
        assert args.strategy == "plain"
        assert args.wait and args.json

    def test_query_requires_terms(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_loadgen_arguments(self):
        args = build_parser().parse_args(
            ["loadgen", "--requests", "50", "--seed", "3",
             "--trajectory", "t.json"]
        )
        assert args.requests == 50
        assert args.seed == 3
        assert args.trajectory == "t.json"
        assert args.url is None

    def test_loadgen_refuses_verify_responses_against_a_url(self, capsys):
        # A remote server's cell is out of reach, so the sweep could not
        # run: refused at parse time instead of silently skipped.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["loadgen", "--url", "http://127.0.0.1:1", "--verify-responses"]
            )
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestCommands:
    def test_query_into_a_closed_pipe_exits_quietly(self, monkeypatch):
        # `repro query ... | head -3`: the reader goes away mid-ranking.
        from repro.serving.client import ServingClient

        response = {
            "query": ["breast", "cancer"], "algorithm": "cori",
            "strategy": "shrinkage", "k": 2, "degraded": False,
            "cached": False, "selected": ["db1"],
            "ranking": [
                {"name": "db1", "score": 0.5, "selected": True},
                {"name": "db2", "score": 0.25, "selected": False},
            ],
        }
        monkeypatch.setattr(
            ServingClient, "select", lambda self, *args, **kwargs: response
        )

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        for extra in ([], ["--json"]):
            monkeypatch.setattr("sys.stdout", ClosedPipe())
            argv = ["query", "breast", "cancer", "--url", "http://127.0.0.1:1"]
            assert main(argv + extra) == 0

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "datasets" in out
        assert "trec4" in out

    def test_summary_quality_runs(self, capsys):
        assert main(["summary-quality", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "weighted recall" in out
        assert "shrunk" in out

    def test_lambdas_runs(self, capsys):
        assert main(["lambdas", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Uniform" in out

    def test_lambdas_unknown_database(self, capsys):
        assert main(["lambdas", "--scale", "small", "--database", "nope"]) == 2

    def test_selection_runs(self, capsys):
        code = main(
            [
                "selection",
                "--dataset", "trec6",
                "--algorithm", "bgloss",
                "--scale", "small",
                "--k", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Shrinkage" in out
        assert "paired t-test" in out


def mean_rk_line(output: str) -> str:
    return next(line for line in output.splitlines() if line.startswith("mean Rk"))


class TestBenchAndCache:
    def test_bench_cold_then_warm_cache(
        self, capsys, tmp_path, isolated_harness
    ):
        cache_dir = str(tmp_path / "store")

        harness.clear_caches()
        assert main(["bench", "--scale", "small", "--cache-dir", cache_dir]) == 0
        cold_out = capsys.readouterr().out
        assert "wall time" in cold_out
        assert "testbed.synthesized" in cold_out
        assert "em.runs" in cold_out

        # Fresh interpreter state, same store: everything loads from disk.
        harness.clear_caches()
        code = main(
            ["bench", "--scale", "small", "--cache-dir", cache_dir,
             "--jobs", "2"]
        )
        assert code == 0
        warm_out = capsys.readouterr().out
        assert "cache.hit" in warm_out
        assert "testbed.synthesized" not in warm_out
        assert "sample.databases" not in warm_out
        assert "em.runs" not in warm_out
        # The cached run reports the exact numbers of the cold run.
        assert mean_rk_line(warm_out) == mean_rk_line(cold_out)

    def test_bench_no_cache_disables_store(self, capsys, isolated_harness):
        from repro.evaluation.instrument import get_instrumentation

        get_instrumentation().reset()
        assert main(["bench", "--scale", "small", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "artifact store" not in out
        assert "cache.store" not in out
        assert harness.get_config().store is None

    def test_cache_requires_directory(self, capsys):
        assert main(["cache"]) == 2
        assert "--cache-dir is required" in capsys.readouterr().out

    def test_cache_inspect_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path)
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "(empty)" in capsys.readouterr().out

        store = ArtifactStore(tmp_path)
        store.save("testbed", "aaa111", {"v": 1})
        store.save("samples", "bbb222", {"v": 2})
        assert main(["cache", "--cache-dir", cache_dir, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "testbed" in out
        assert "samples" in out
        assert "aaa111" in out

        assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_cache_reports_traffic(self, capsys, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("testbed", "aaa111", {"v": 1})
        assert store.load("testbed", "aaa111") == {"v": 1}  # hit
        assert store.load("testbed", "zzz999") is None  # miss
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "traffic" in out
        traffic_line = next(
            line
            for line in out.splitlines()
            if line.startswith("testbed") and "aaa" not in line
        )
        fields = traffic_line.split()
        # kind, hits, misses, corrupt, saves, read B, written B
        assert fields[1] == "1"  # one hit
        assert fields[2] == "1"  # one miss
        assert fields[4] == "1"  # one save
        assert int(fields[5]) > 0 and int(fields[6]) > 0


class TestTraceCli:
    def test_bench_trace_out_forms_single_rooted_tree(
        self, capsys, tmp_path, isolated_harness
    ):
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["bench", "--scale", "small", "--no-cache",
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert events[0]["type"] == "run"
        spans = [e for e in events if e["type"] == "span"]
        roots = [e for e in spans if e["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "repro.bench"
        ids = {e["id"] for e in spans}
        assert all(
            e["parent"] in ids for e in spans if e["parent"] is not None
        )
        metrics = next(e for e in events if e["type"] == "metrics")
        assert metrics["run_id"] == events[0]["run_id"]
        # the bench record rides along at the end of the stream
        record = next(e for e in events if e["type"] == "record")
        assert record["context"]["kind"] == "bench-cell"

    def test_bench_json_pipes_into_trace(
        self, capsys, monkeypatch, isolated_harness
    ):
        assert main(["bench", "--scale", "small", "--no-cache", "--json"]) == 0
        out = capsys.readouterr().out
        # stdout is pure JSONL, no human-readable tables
        parsed = [json.loads(line) for line in out.splitlines()]
        assert parsed[0]["type"] == "run"
        assert any(e["type"] == "span" for e in parsed)

        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert main(["trace"]) == 0
        rendered = capsys.readouterr().out
        assert "repro.bench" in rendered
        assert "0 orphaned" in rendered

    def test_trace_reads_file(self, capsys, tmp_path, isolated_harness):
        trace_path = tmp_path / "trace.jsonl"
        main(
            ["bench", "--scale", "small", "--no-cache",
             "--trace-out", str(trace_path)]
        )
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        rendered = capsys.readouterr().out
        assert "repro.bench" in rendered
        assert "evaluate.rk" in rendered

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_trace_empty_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["trace"]) == 2
        assert "no trace events" in capsys.readouterr().out


class TestTrajectoryCli:
    def test_bench_trajectory_appends_and_compares(
        self, capsys, tmp_path, isolated_harness
    ):
        traj = tmp_path / "traj.json"
        args = ["bench", "--scale", "small", "--no-cache",
                "--trajectory", str(traj)]

        assert main(args) == 0
        first_out = capsys.readouterr().out
        assert f"appended record 1 to {traj}" in first_out
        assert "no previous comparable record" in first_out

        assert main(args) == 0
        second_out = capsys.readouterr().out
        assert f"appended record 2 to {traj}" in second_out
        assert (
            "no regressions" in second_out or "WARNING" in second_out
        )

        document = json.loads(traj.read_text())
        assert len(document["records"]) == 2
        context = document["records"][0]["context"]
        assert context["kind"] == "bench-cell"
        assert context["scale"] == "small"

    def test_different_context_is_not_comparable(
        self, capsys, tmp_path, isolated_harness
    ):
        traj = tmp_path / "traj.json"
        base = ["bench", "--scale", "small", "--no-cache",
                "--trajectory", str(traj)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "no previous comparable record" in out

    def test_loadgen_runs_in_process(self, capsys):
        code = main(
            ["loadgen", "--scale", "small", "--requests", "15",
             "--algorithm", "cori", "--strategy", "plain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "load: 15 requests" in out
        assert "latency ms:" in out

    def test_loadgen_trajectory_record(self, capsys, tmp_path):
        traj = tmp_path / "serve.json"
        args = ["loadgen", "--scale", "small", "--requests", "10",
                "--strategy", "plain", "--trajectory", str(traj)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"appended record 2 to {traj}" in out
        document = json.loads(traj.read_text())
        assert len(document["records"]) == 2
        record = document["records"][0]
        assert record["context"]["kind"] == "serve-load"
        assert record["load"]["requests"] == 10
