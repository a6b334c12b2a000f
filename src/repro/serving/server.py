"""Stdlib HTTP front end for :class:`~repro.serving.service.SelectionService`.

Endpoints (all JSON):

* ``POST /select`` — body ``{"query": "breast cancer" | ["breast", ...],
  "algorithm": "cori", "strategy": "shrinkage", "k": 10}``; responds with
  the full ranking, the selected prefix, and degradation/caching flags.
  The handler captures the request's arrival instant before reading the
  body, so the degradation deadline covers parse and queue time too.
* ``POST /admin/update`` — body ``{"ops": [...], "verify": false}``;
  applies lifecycle operations (add/remove/replace/resample/restore) and
  hot-swaps the updated cell in. With ``"verify": true`` the response
  carries a bit-identity report against a from-scratch rebuild.
* ``GET /healthz`` — service description; 200 once preloading is done
  (the socket only starts listening after preload, so a successful
  connect already implies readiness). Lock-free: never queues behind
  scoring or updates.
* ``GET /stats`` — ``{"local": ..., "pool": ...}``: this process's
  request counters, cache sizes, snapshot epoch and shm segment, plus
  the pool-wide aggregate (== local for a single-process server; the
  dispatcher's merged view of every worker under ``--workers N``).
  Equally lock-free.
* ``GET /metrics`` — Prometheus text exposition of the process-wide
  metrics registry (see :mod:`repro.serving.telemetry`); worker
  processes serve the dispatcher-aggregated pool registry instead, so
  any worker reports the whole pool. Lock-free like ``/healthz`` (the
  registry snapshot lock is never held across scoring or updates).

Every request additionally publishes per-request telemetry — a request
id, per-phase timings (parse, cache, select, serialize), and outcome
tags — through :func:`repro.serving.telemetry.record_request`.

``ThreadingHTTPServer`` gives one thread per connection; the service's
request path is lock-free over immutable snapshots (see service.py), so
handlers stay simple. No third-party web framework — the container's
stdlib is the dependency budget.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serving.admission import ServiceOverloaded
from repro.serving.service import (
    SelectionService,
    parse_request,
    parse_update_request,
)
from repro.serving.telemetry import (
    RequestTelemetry,
    record_request,
    render_prometheus,
)

#: Cap on accepted request bodies. A select request is a few hundred
#: bytes; an admin update carrying a full summary payload can run to a
#: few megabytes.
MAX_BODY_BYTES = 1 << 20
MAX_ADMIN_BODY_BYTES = 1 << 26


def pool_section_from_local(local: dict) -> dict:
    """The /stats ``pool`` section for a single-process deployment.

    Shape-compatible with the dispatcher aggregate so consumers read one
    schema: a one-worker pool whose totals are the local counters.
    """
    return {
        "workers": 1,
        "respawns": 0,
        "epoch": local.get("epoch"),
        "requests": local.get("requests", 0),
        "cache_hits": local.get("cache_hits", 0),
        "degraded": local.get("degraded", 0),
        "errors": local.get("errors", 0),
        "shed": local.get("shed", 0),
        "swaps": local.get("swaps", 0),
    }


class SelectionRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the service; one instance per request."""

    #: Installed by :func:`make_server`.
    service: SelectionService

    protocol_version = "HTTP/1.1"
    #: Quiet by default; ``repro serve --verbose`` re-enables logging.
    verbose = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    def _respond(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _respond_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- observability hooks (worker handlers override these) ------------------

    def _pool_stats(self) -> dict | None:
        """Pool-wide stats aggregate; None means single-process (== local)."""
        return None

    def _metrics_text(self) -> str:
        """The /metrics exposition body (local registry by default)."""
        return render_prometheus()

    def _stats_payload(self) -> dict:
        local = self.service.stats_snapshot()
        pool = self._pool_stats()
        if pool is None:
            pool = pool_section_from_local(local)
        return {"local": local, "pool": pool}

    def _record_get(self, telemetry: RequestTelemetry) -> None:
        telemetry.tag_outcome(epoch=self.service.snapshot.version)
        record_request(telemetry)

    def do_GET(self) -> None:  # noqa: N802 (http.server's naming)
        telemetry = RequestTelemetry(self.path.strip("/") or "root")
        if self.path == "/healthz":
            self._respond(200, self.service.describe())
            self._record_get(telemetry)
        elif self.path == "/stats":
            self._respond(200, self._stats_payload())
            self._record_get(telemetry)
        elif self.path == "/metrics":
            self._respond_text(200, self._metrics_text())
            self._record_get(telemetry)
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})

    def _read_body(self, limit: int) -> dict | None:
        """The request's JSON body, or None after responding with an error."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._respond(411, {"error": "invalid Content-Length"})
            return None
        if length <= 0 or length > limit:
            self._respond(413, {"error": "request body missing or too large"})
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self.service.stats.record_error()
            self._respond(400, {"error": str(error)})
            return None

    def do_POST(self) -> None:  # noqa: N802
        # The degradation budget runs from here: time spent reading and
        # parsing the body (or queued behind it) counts against the
        # request, not silently on top of it.
        arrival = time.monotonic()
        if self.path == "/select":
            # The telemetry record starts with the HTTP parse phase; the
            # service adds cache/select/serialize and publishes it once.
            telemetry = RequestTelemetry("select")
            try:
                with telemetry.phase("parse"):
                    payload = self._read_body(MAX_BODY_BYTES)
                    if payload is None:
                        telemetry.error_class = "BadRequest"
                        record_request(telemetry)
                        return
                    kwargs = parse_request(payload)
            except ValueError as error:
                self.service.stats.record_error()
                telemetry.fail(error)
                record_request(telemetry)
                self._respond(400, {"error": str(error)})
                return
            try:
                response = self.service.select(
                    arrival=arrival, telemetry=telemetry, **kwargs
                )
            except ServiceOverloaded as error:
                # Shed, not failed: the service never scored this
                # request, and the client gets an actionable answer
                # (back off `Retry-After` seconds) long before the
                # degradation deadline would have fired.
                self._respond(
                    429,
                    {
                        "error": str(error),
                        "retry_after_seconds": error.retry_after_seconds,
                    },
                    headers={
                        "Retry-After": max(
                            1, round(error.retry_after_seconds)
                        )
                    },
                )
                return
            except ValueError as error:
                self.service.stats.record_error()
                self._respond(400, {"error": str(error)})
                return
            except Exception as error:  # pragma: no cover - defensive
                self.service.stats.record_error()
                self._respond(500, {"error": f"{type(error).__name__}: {error}"})
                return
            self._respond(200, response)
        elif self.path == "/admin/update":
            telemetry = RequestTelemetry("admin_update")
            with telemetry.phase("parse"):
                payload = self._read_body(MAX_ADMIN_BODY_BYTES)
            if payload is None:
                telemetry.error_class = "BadRequest"
                record_request(telemetry)
                return
            try:
                kwargs = parse_update_request(payload)
                with telemetry.phase("update"):
                    response = self.service.apply_update(**kwargs)
            except ValueError as error:
                self.service.stats.record_error()
                telemetry.fail(error)
                record_request(telemetry)
                self._respond(400, {"error": str(error)})
                return
            except Exception as error:  # pragma: no cover - defensive
                self.service.stats.record_error()
                telemetry.fail(error)
                record_request(telemetry)
                self._respond(500, {"error": f"{type(error).__name__}: {error}"})
                return
            telemetry.tag_outcome(epoch=response.get("snapshot_version"))
            record_request(telemetry)
            self._respond(200, response)
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})


def make_server(
    service: SelectionService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    sock=None,
    handler_base: type[SelectionRequestHandler] | None = None,
    handler_attrs: dict | None = None,
) -> ThreadingHTTPServer:
    """A ready-to-run server bound to ``host:port`` (0 picks a free port).

    The caller owns the lifecycle: ``serve_forever()`` to block (as
    ``repro serve`` does), or run it on a thread and ``shutdown()`` when
    done (as the tests and the in-process load generator do).

    ``sock`` adopts an already-bound, already-listening socket instead
    of binding a new one — the worker dispatcher passes each forked
    worker the shared (or SO_REUSEPORT) acceptor this way.
    ``handler_base``/``handler_attrs`` let callers serve through a
    handler subclass (the worker handler forwards ``/admin/update`` to
    the dispatcher and annotates ``/healthz`` with its pid/epoch).
    """
    import socket as socket_module

    attrs = {"service": service, "verbose": verbose}
    attrs.update(handler_attrs or {})
    handler = type(
        "BoundSelectionRequestHandler",
        (handler_base or SelectionRequestHandler,),
        attrs,
    )
    if sock is None:
        server = ThreadingHTTPServer((host, port), handler)
    else:
        address = sock.getsockname()[:2]
        server = ThreadingHTTPServer(address, handler, bind_and_activate=False)
        server.socket.close()  # replace the unbound placeholder socket
        server.socket = sock
        # What server_bind would have derived had we bound here.
        server.server_address = address
        server.server_name = socket_module.getfqdn(address[0])
        server.server_port = address[1]
    server.daemon_threads = True
    return server
