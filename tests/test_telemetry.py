"""Per-request telemetry, /metrics exposition, and the slow-query log."""

from __future__ import annotations

import json

import pytest

from repro.evaluation.instrument import Instrumentation
from repro.serving.telemetry import (
    RequestTelemetry,
    SlowQueryLog,
    labeled,
    record_request,
    render_prometheus,
    split_labeled,
)


class TestLabeledNames:
    def test_round_trip(self):
        name = labeled("serve.http.requests", endpoint="select", status="ok")
        assert name == "serve.http.requests{endpoint=select,status=ok}"
        base, labels = split_labeled(name)
        assert base == "serve.http.requests"
        assert labels == {"endpoint": "select", "status": "ok"}

    def test_keys_sorted_so_equal_sets_collide(self):
        assert labeled("m", b="2", a="1") == labeled("m", a="1", b="2")

    def test_no_labels_is_identity(self):
        assert labeled("plain.name") == "plain.name"
        assert split_labeled("plain.name") == ("plain.name", {})


class TestRecordRequest:
    def test_ok_request_emits_full_series(self):
        inst = Instrumentation()
        telemetry = RequestTelemetry("select")
        telemetry.add_phase("parse", 0.001)
        telemetry.add_phase("select", 0.010)
        telemetry.tag_outcome(
            strategy="shrinkage", epoch=3, cache_hit=False,
            degraded=True, pruned=True, candidates_scored=42,
        )
        elapsed = record_request(telemetry, inst)
        assert elapsed > 0.0
        assert inst.counters[
            "serve.http.requests{endpoint=select,status=ok}"
        ] == 1
        assert inst.counters["serve.degraded_requests{endpoint=select}"] == 1
        assert inst.counters["serve.scans{endpoint=select,mode=pruned}"] == 1
        assert "serve.cache_hits{endpoint=select}" not in inst.counters
        assert (
            len(inst.histograms["serve.phase_seconds{endpoint=select,phase=parse}"])
            == 1
        )
        # The epoch is an outcome tag, not a label: no series per swap.
        assert "serve.handler_seconds{endpoint=select,strategy=shrinkage}" in inst.histograms

    def test_failed_request_counts_error_class(self):
        inst = Instrumentation()
        telemetry = RequestTelemetry("select")
        telemetry.fail(ValueError("bad"))
        record_request(telemetry, inst)
        assert inst.counters[
            "serve.http.requests{endpoint=select,status=error}"
        ] == 1
        assert inst.counters["serve.errors{class=ValueError,endpoint=select}"] == 1

    def test_cache_hit_counts(self):
        inst = Instrumentation()
        telemetry = RequestTelemetry("select")
        telemetry.tag_outcome(cache_hit=True)
        record_request(telemetry, inst)
        assert inst.counters["serve.cache_hits{endpoint=select}"] == 1

    def test_request_ids_unique(self):
        ids = {RequestTelemetry("select").request_id for _ in range(100)}
        assert len(ids) == 100


class TestPrometheusRendering:
    def test_golden_exposition(self):
        """Deterministic byte-for-byte output from a fixed registry."""
        inst = Instrumentation()
        inst.count(labeled("serve.http.requests", endpoint="select", status="ok"), 7)
        inst.count("serve.requests", 7)
        inst.set_gauge("serve.epoch", 2)
        inst.add_time("select.run", 1.5, calls=3)
        for value in (0.25, 0.5, 0.75, 1.0):
            inst.observe(labeled("serve.phase_seconds", endpoint="select",
                                 phase="select"), value)
        assert render_prometheus(inst) == (
            "# TYPE repro_serve_epoch gauge\n"
            "repro_serve_epoch 2\n"
            "# TYPE repro_serve_http_requests_total counter\n"
            'repro_serve_http_requests_total{endpoint="select",status="ok"} 7\n'
            "# TYPE repro_serve_phase_seconds summary\n"
            'repro_serve_phase_seconds_count{endpoint="select",phase="select"} 4\n'
            'repro_serve_phase_seconds_sum{endpoint="select",phase="select"} 2.5\n'
            'repro_serve_phase_seconds{endpoint="select",phase="select",quantile="0.5"} 0.5\n'
            'repro_serve_phase_seconds{endpoint="select",phase="select",quantile="0.9"} 1\n'
            'repro_serve_phase_seconds{endpoint="select",phase="select",quantile="0.99"} 1\n'
            "# TYPE repro_serve_requests_total counter\n"
            "repro_serve_requests_total 7\n"
            "# TYPE repro_timer_calls_total counter\n"
            'repro_timer_calls_total{name="select.run"} 3\n'
            "# TYPE repro_timer_seconds_total counter\n"
            'repro_timer_seconds_total{name="select.run"} 1.5\n'
        )

    def test_reservoir_histogram_reports_exact_count_and_sum(self):
        inst = Instrumentation(histogram_cap=8)
        for index in range(100):
            inst.observe("h", float(index))
        text = render_prometheus(inst)
        assert "repro_h_count 100\n" in text
        assert f"repro_h_sum {float(sum(range(100))):g}" in text

    def test_label_escaping(self):
        inst = Instrumentation()
        inst.count(labeled("m", q='say "hi"'), 1)
        assert 'q="say \\"hi\\""' in render_prometheus(inst)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(Instrumentation()) == ""


class TestSlowQueryLog:
    def _telemetry(self) -> RequestTelemetry:
        telemetry = RequestTelemetry("select")
        telemetry.add_phase("select", 0.2)
        telemetry.tag_outcome(strategy="shrinkage", epoch=1)
        return telemetry

    def test_below_threshold_writes_nothing(self, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl", threshold_seconds=0.1)
        assert log.maybe_record(self._telemetry(), elapsed=0.05) is False
        assert not (tmp_path / "slow.jsonl").exists()

    def test_slow_request_appends_structured_entry(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path, threshold_seconds=0.1)
        telemetry = self._telemetry()
        assert log.maybe_record(telemetry, elapsed=0.25) is True
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["endpoint"] == "select"
        assert entry["elapsed_ms"] == 250.0
        assert entry["request_id"] == telemetry.request_id
        assert entry["phases_ms"] == {"select": 200.0}
        assert entry["strategy"] == "shrinkage"
        assert entry["epoch"] == 1

    def test_rotation_bounds_disk_usage(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path, threshold_seconds=0.0, max_bytes=2048)
        for _ in range(200):
            log.maybe_record(self._telemetry(), elapsed=1.0)
        rotated = path.with_name(path.name + ".1")
        assert rotated.exists()
        # Bounded at ~2x max_bytes regardless of how many entries landed.
        assert path.stat().st_size <= 2048
        assert rotated.stat().st_size <= 2048
        # Both files still hold intact JSONL lines.
        for file in (path, rotated):
            for line in file.read_text().splitlines():
                assert json.loads(line)["endpoint"] == "select"

    def test_from_env(self, tmp_path):
        path = tmp_path / "env.jsonl"
        log = SlowQueryLog.from_env(
            {
                "REPRO_SLOW_QUERY_LOG": str(path),
                "REPRO_SLOW_QUERY_THRESHOLD_MS": "250",
                "REPRO_SLOW_QUERY_LOG_MAX_BYTES": "4096",
            }
        )
        assert log is not None
        assert log.threshold_seconds == pytest.approx(0.25)
        assert log.max_bytes == 4096
        assert SlowQueryLog.from_env({}) is None


class TestServiceIntegration:
    def test_select_records_phases_and_slow_log(self, tmp_path):
        """One in-process select produces the full telemetry record."""
        from tests.test_serving import _make_service

        from repro.evaluation.instrument import get_instrumentation

        inst = get_instrumentation()
        saved = inst.snapshot()
        try:
            inst.reset()
            service = _make_service()
            # Threshold 0: every request is "slow", so the log must fire.
            service.slow_query_log = SlowQueryLog(
                tmp_path / "slow.jsonl", threshold_seconds=0.0
            )
            response = service.select(
                ["gen000"], algorithm="cori", strategy="shrinkage", k=5
            )
            assert "request_id" in response
            assert inst.counters[
                "serve.http.requests{endpoint=select,status=ok}"
            ] == 1
            for phase in ("parse", "cache", "select", "serialize"):
                key = f"serve.phase_seconds{{endpoint=select,phase={phase}}}"
                assert len(inst.histograms[key]) == 1, key
            entry = json.loads(
                (tmp_path / "slow.jsonl").read_text().splitlines()[0]
            )
            assert entry["request_id"] == response["request_id"]
            assert entry["epoch"] == 1
            text = render_prometheus(inst)
            assert (
                'repro_serve_http_requests_total{endpoint="select",status="ok"} 1'
                in text
            )
        finally:
            inst.reset()
            inst.merge(saved)
