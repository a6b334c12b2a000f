"""Multi-core serving: forked worker processes over shared snapshots.

``repro serve --workers N`` breaks the single-interpreter ceiling: every
``/select`` in the one-process server contends on one GIL no matter how
many threads ``ThreadingHTTPServer`` spawns. Here a *dispatcher* process
preloads and warms the cell once, packs the snapshot's score matrices
into a shared-memory segment (:mod:`repro.serving.shm`), and forks N
*worker* processes that each run a full HTTP server over the same
listening socket — N interpreters, N GILs, one copy of the matrices.

Acceptor strategy: all workers ``accept()`` on one inherited listening
socket by default (the kernel wakes exactly one worker per connection,
and a dying worker never strands a private accept queue). With
``reuseport=True`` and a platform that has ``SO_REUSEPORT``, each worker
instead gets its own socket bound to the same port — better accept-load
spreading on busy multi-core hosts, at the cost of a brief refusal
window when a worker dies (the dispatcher respawns it).

Epoch-flip protocol (snapshot hot swaps with workers attached):

1. Any worker receiving ``POST /admin/update`` *forwards* it verbatim to
   the dispatcher's private admin endpoint — workers never mutate state
   on their own.
2. The dispatcher applies the ops through its own
   :meth:`~repro.serving.service.SelectionService.apply_update`
   (serialized, optionally bit-verified against a rebuild), warms the
   new cell, packs a **new** segment, and rebinds its own matrices onto
   the shared views.
3. It broadcasts ``{"cmd": "flip", "epoch": E, "ops": <journal suffix>,
   "manifest": <new manifest>}`` to every worker over its control
   socketpair. The ops are the canonical-journal *suffix* since that
   worker's last acknowledged state — a worker that missed a flip (it
   was being respawned) catches up by replaying a longer suffix; the
   lifecycle bit-identity contract makes the replayed state equal the
   dispatcher's bit for bit, and the attach digest check proves the
   matrices are too.
4. Each worker replays the suffix, adopts the new segment's views
   (zero-copy, digest-verified), publishes its new snapshot under
   exactly epoch ``E``, and acks with the count of response-cache
   entries it carried across. The dispatcher sends every flip before it
   reads any ack, so the workers catch up concurrently, and it waits
   for all acks against one shared deadline.
5. Only after every live worker has acked — the drain barrier — does the
   dispatcher unlink the old segment and answer the update request. A
   client that has seen the update response can therefore never observe
   a pre-update ``/select`` answer: every worker is already serving
   epoch ``E``. In-flight requests on the old snapshot finish from the
   old mapping, which the kernel keeps alive (unlinked but mapped) until
   the last view drops.

Worker death (crash or SIGTERM) is detected by a reaper thread; the
dead worker is reaped and a fresh one forked from the dispatcher's
*current* state — it inherits the live segment mapping, so no journal
replay is needed. Workers own no segment names, so no path through
worker death can orphan ``/dev/shm`` entries; the dispatcher unlinks
everything it created on shutdown (and at exit, as a last resort).

Telemetry aggregation (DESIGN.md §5h): each worker periodically ships
its instrumentation delta (``snapshot_delta`` over the post-fork
baseline) and service counters over the same control socketpair. A
dispatcher-side reader thread per worker demultiplexes those pushes
from ready/ack/bye protocol messages (which land in a per-worker
inbox), merging deltas into one pool-wide registry under a dedicated
telemetry lock — never the flip lock, so ``/metrics`` can't queue
behind a multi-second update. On-demand scrapes send ``{"cmd":
"poll"}`` and wait (bounded) for every live worker's echoed token, so
a post-load ``/metrics`` read reflects every completed request
exactly; if a worker is mid-flip the collector falls back to its last
shipped state rather than blocking.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import signal
import socket
import threading
import time

from repro.evaluation.instrument import (
    Instrumentation,
    get_instrumentation,
    snapshot_delta,
)
from repro.serving import shm
from repro.serving.server import (
    MAX_ADMIN_BODY_BYTES,
    SelectionRequestHandler,
    make_server,
)
from repro.serving.service import SelectionService, parse_update_request
from repro.serving.telemetry import render_prometheus

#: Seconds the dispatcher waits for one worker's flip ack before it
#: declares the worker wedged, kills it, and respawns from current state.
FLIP_ACK_TIMEOUT = 60.0

#: Seconds to wait for a worker's ready handshake at spawn.
READY_TIMEOUT = 30.0

#: Seconds between a worker's periodic telemetry pushes.
TELEMETRY_INTERVAL = 1.0

#: Seconds a fresh-telemetry collect waits for every worker's poll echo
#: before serving the last shipped state instead.
TELEMETRY_POLL_TIMEOUT = 5.0


def fork_available() -> bool:
    """Whether this platform can run the worker pool at all."""
    return hasattr(os, "fork")


def _make_listener(host: str, port: int, reuseport: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuseport:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


def _send_line(sock: socket.socket, message: dict) -> None:
    sock.sendall(json.dumps(message).encode("utf-8") + b"\n")


class _LineReader:
    """Blocking newline-JSON reader over a socket with a deadline."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""

    def read(self, timeout: float | None = None) -> dict | None:
        """The next message, or ``None`` on EOF/timeout."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while b"\n" not in self._buffer:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._sock.settimeout(remaining)
            else:
                self._sock.settimeout(None)
            try:
                chunk = self._sock.recv(65536)
            except (TimeoutError, socket.timeout):
                return None
            except OSError:
                return None
            if not chunk:
                return None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError:
            return None


# -- worker side ---------------------------------------------------------------


class WorkerRequestHandler(SelectionRequestHandler):
    """The public handler a worker serves: select locally, admin by proxy."""

    #: Dispatcher admin endpoint, installed by the pool at fork time.
    admin_url: str = ""

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":
            payload = self.service.describe()
            payload["role"] = "worker"
            self._respond(200, payload)
        else:
            super().do_GET()

    # No deadlock risk in these proxies: the dispatcher thread answering
    # them polls this worker's control_loop thread, which is distinct
    # from the HTTP handler thread blocked here.

    def _fetch_admin(self, path: str) -> bytes | None:
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(
                f"{self.admin_url}{path}", timeout=TELEMETRY_POLL_TIMEOUT + 5.0
            ) as response:
                return response.read()
        except (urllib.error.URLError, OSError):
            return None

    def _pool_stats(self) -> dict | None:
        raw = self._fetch_admin("/stats")
        if raw is None:
            return None  # degrade to the local-as-pool section
        try:
            return json.loads(raw.decode("utf-8")).get("pool")
        except ValueError:
            return None

    def _metrics_text(self) -> str:
        raw = self._fetch_admin("/metrics")
        if raw is None:
            return (
                "# NOTE dispatcher unreachable; this worker's local "
                "registry follows\n" + render_prometheus()
            )
        return raw.decode("utf-8")

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/admin/update":
            super().do_POST()
            return
        # Forward the raw body to the dispatcher; state changes flow
        # through exactly one process, then fan back out as epoch flips.
        import urllib.error
        import urllib.request

        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._respond(411, {"error": "invalid Content-Length"})
            return
        if length <= 0 or length > MAX_ADMIN_BODY_BYTES:
            self._respond(413, {"error": "request body missing or too large"})
            return
        body = self.rfile.read(length)
        request = urllib.request.Request(
            f"{self.admin_url}/admin/update",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=600.0) as response:
                self._respond(
                    response.status,
                    json.loads(response.read().decode("utf-8")),
                )
        except urllib.error.HTTPError as error:
            try:
                payload = json.loads(error.read().decode("utf-8"))
            except Exception:
                payload = {"error": str(error.reason)}
            self._respond(error.code, payload)
        except (urllib.error.URLError, OSError) as error:
            self.service.stats.record_error()
            self._respond(503, {"error": f"dispatcher unreachable: {error}"})


class _WorkerRuntime:
    """Everything a forked worker owns: its server, control loop, segment."""

    def __init__(
        self,
        service: SelectionService,
        listener: socket.socket,
        control: socket.socket,
        admin_url: str,
        verbose: bool = False,
        telemetry_interval: float = TELEMETRY_INTERVAL,
    ) -> None:
        self.service = service
        self.control = control
        self.reader = _LineReader(control)
        self.segment: shm.SnapshotSegment | None = None
        self.journal_length = len(service.journal)
        self.telemetry_interval = float(telemetry_interval)
        #: Serializes all control-socket writes (acks vs. telemetry pushes).
        self._send_lock = threading.Lock()
        #: Serializes baseline-snapshot swaps between shipper threads.
        self._telemetry_lock = threading.Lock()
        #: Deltas are relative to the post-fork state: everything the
        #: worker inherited from the dispatcher (preload counters, warm
        #: timers) is already in the dispatcher's own registry and must
        #: not be double-counted in the pool aggregate.
        self._telemetry_baseline = get_instrumentation().snapshot()
        self._telemetry_seq = 0
        self.server = make_server(
            service,
            sock=listener,
            verbose=verbose,
            handler_base=WorkerRequestHandler,
            handler_attrs={"admin_url": admin_url},
        )

    def _send(self, message: dict) -> None:
        with self._send_lock:
            _send_line(self.control, message)

    def ship_telemetry(self, poll: int | None = None) -> None:
        """Push one instrumentation delta + service counters upstream."""
        instrumentation = get_instrumentation()
        with self._telemetry_lock:
            current = instrumentation.snapshot()
            delta = snapshot_delta(self._telemetry_baseline, current)
            self._telemetry_baseline = current
            self._telemetry_seq += 1
            payload = {
                "pid": os.getpid(),
                "seq": self._telemetry_seq,
                "poll": poll,
                "epoch": self.service.snapshot.version,
                "journal_length": self.journal_length,
                "instrumentation": delta,
                "service": self.service.stats_snapshot(),
            }
        self._send({"telemetry": payload})

    def _telemetry_loop(self) -> None:
        while True:
            time.sleep(self.telemetry_interval)
            try:
                self.ship_telemetry()
            except OSError:  # dispatcher went away; control_loop exits too
                return

    def flip(self, epoch: int, ops: list, manifest: dict) -> dict:
        """Catch up to the dispatcher's epoch: replay ops, adopt segment.

        The ack carries how many of this worker's response-cache entries
        the swap kept (``response_cache_retained``): the workers answer
        every select, so their caches are the pool's.
        """
        adopted: dict = {}

        def materialize(metasearcher, version):
            adopted["segment"] = shm.adopt_snapshot(metasearcher, manifest)
            return manifest

        if ops:
            result = self.service.apply_update(
                ops, verify=False, materialize=materialize, version=epoch
            )
            retained = int(result["response_cache_retained"])
            previous = self.segment
            self.segment = adopted.get("segment")
            if previous is not None:
                previous.close()
        else:
            # An empty suffix means this worker is already at the target
            # epoch (it was respawned from post-update state): ack as-is,
            # its cache untouched.
            retained = len(self.service.snapshot.cache)
        self.journal_length = len(self.service.journal)
        return {
            "ack": epoch,
            "pid": os.getpid(),
            "epoch": self.service.snapshot.version,
            "journal_length": self.journal_length,
            "response_cache_retained": retained,
        }

    def control_loop(self) -> None:
        while True:
            message = self.reader.read()
            if message is None:  # dispatcher went away: shut down
                os._exit(0)
            cmd = message.get("cmd")
            if cmd == "stop":
                try:
                    self._send({"bye": os.getpid()})
                except OSError:
                    pass
                os._exit(0)
            elif cmd == "poll":
                try:
                    self.ship_telemetry(poll=message.get("token"))
                except OSError:
                    os._exit(0)
            elif cmd == "flip":
                try:
                    ack = self.flip(
                        int(message["epoch"]),
                        list(message.get("ops") or ()),
                        dict(message["manifest"]),
                    )
                except Exception as error:  # keep serving the old epoch
                    ack = {
                        "ack": None,
                        "pid": os.getpid(),
                        "error": f"{type(error).__name__}: {error}",
                        "epoch": self.service.snapshot.version,
                        "journal_length": self.journal_length,
                    }
                try:
                    self._send(ack)
                except OSError:
                    os._exit(0)

    def run(self) -> None:
        signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        threading.Thread(target=self.control_loop, daemon=True).start()
        threading.Thread(target=self._telemetry_loop, daemon=True).start()
        self._send(
            {
                "ready": os.getpid(),
                "epoch": self.service.snapshot.version,
                "journal_length": self.journal_length,
            },
        )
        self.server.serve_forever(poll_interval=0.1)
        os._exit(0)


# -- dispatcher side -----------------------------------------------------------


class DispatcherAdminHandler(SelectionRequestHandler):
    """The dispatcher's private endpoint: updates orchestrate epoch flips."""

    pool: "WorkerPool"

    def _pool_stats(self) -> dict | None:
        return self.pool.pool_stats()

    def _metrics_text(self) -> str:
        return self.pool.metrics_text()

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/admin/update":
            super().do_POST()
            return
        payload = self._read_body(MAX_ADMIN_BODY_BYTES)
        if payload is None:
            return
        try:
            kwargs = parse_update_request(payload)
            response = self.pool.apply_update(**kwargs)
        except ValueError as error:
            self.service.stats.record_error()
            self._respond(400, {"error": str(error)})
            return
        except Exception as error:  # pragma: no cover - defensive
            self.service.stats.record_error()
            self._respond(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._respond(200, response)


class _WorkerHandle:
    """Dispatcher-side view of one worker: control socket + reader thread.

    The reader thread drains the control socket continuously,
    demultiplexing asynchronous ``telemetry`` pushes (absorbed via the
    pool callback) from protocol messages — ready, flip acks, bye —
    which land in :attr:`inbox` for the synchronous call sites. Without
    it, a telemetry push arriving between a flip broadcast and its ack
    read would corrupt the flip barrier.
    """

    def __init__(
        self,
        pid: int,
        control: socket.socket,
        listener: socket.socket | None,
        absorb_telemetry=None,
    ) -> None:
        self.pid = pid
        self.control = control
        self.reader = _LineReader(control)
        #: The worker's dedicated SO_REUSEPORT socket (None in shared mode).
        self.listener = listener
        self.journal_length = 0
        self.epoch = 0
        self.inbox: queue.Queue = queue.Queue()
        #: Last telemetry payload shipped by this worker (absolute
        #: service counters; the instrumentation delta is merged away).
        self.telemetry: dict | None = None
        #: Token of the last answered ``poll`` (freshness barrier).
        self.last_poll: int | None = None
        self._send_lock = threading.Lock()
        self._eof = False
        self._absorb = absorb_telemetry
        self._reader_thread = threading.Thread(target=self._read_loop, daemon=True)
        self._reader_thread.start()

    def _read_loop(self) -> None:
        while True:
            message = self.reader.read(None)
            if message is None:  # EOF (worker died or handle closed)
                self.inbox.put(None)
                return
            if "telemetry" in message and self._absorb is not None:
                self._absorb(self, message["telemetry"])
            else:
                self.inbox.put(message)

    def send(self, message: dict) -> None:
        with self._send_lock:
            _send_line(self.control, message)

    def recv(self, timeout: float | None = None) -> dict | None:
        """Next protocol message from the inbox, or None on EOF/timeout."""
        if self._eof:
            return None
        try:
            message = self.inbox.get(timeout=timeout)
        except queue.Empty:
            return None
        if message is None:
            self._eof = True
        return message

    def close(self) -> None:
        try:
            self.control.close()
        except OSError:
            pass
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass


class WorkerPool:
    """N forked serving workers behind one port, plus their dispatcher.

    The service must be fully built and warmed before ``start()`` — the
    initial segment pack covers exactly the warmed matrices, and forked
    workers inherit everything else (vocabulary, summaries, scorers) via
    fork's copy-on-write pages.
    """

    def __init__(
        self,
        service: SelectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        verbose: bool = False,
        reuseport: bool = False,
        telemetry_interval: float = TELEMETRY_INTERVAL,
    ) -> None:
        if not fork_available():  # pragma: no cover - non-POSIX
            raise RuntimeError(
                "worker pool requires os.fork; use the single-process server"
            )
        self.service = service
        self.requested_host = host
        self.requested_port = port
        self.worker_count = max(1, int(workers))
        self.verbose = verbose
        self.telemetry_interval = float(telemetry_interval)
        self.reuseport = bool(reuseport) and hasattr(socket, "SO_REUSEPORT")
        self.host: str | None = None
        self.port: int | None = None
        self.admin_port: int | None = None
        self.respawns = 0
        self._listener: socket.socket | None = None
        self._admin_listener: socket.socket | None = None
        self._admin_server = None
        self._admin_thread: threading.Thread | None = None
        self._reaper_thread: threading.Thread | None = None
        self._workers: dict[int, _WorkerHandle] = {}
        self._segment: shm.SnapshotSegment | None = None
        self._manifest: dict | None = None
        self._flip_lock = threading.Lock()
        #: Guards the pool telemetry registry and per-handle telemetry —
        #: deliberately NOT the flip lock: a /metrics scrape must never
        #: queue behind a multi-second update build.
        self._telemetry_cv = threading.Condition()
        #: Merged instrumentation deltas from every worker (cumulative,
        #: survives worker respawns). Pool truth = this + the
        #: dispatcher's own process-wide registry.
        self._pool_instrumentation = Instrumentation()
        self._poll_tokens = itertools.count(1)
        #: Reuseport acceptors created but not yet handed to a worker.
        self._pending: list[socket.socket | None] = []
        self._started = False
        self._shutting_down = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def admin_url(self) -> str:
        return f"http://127.0.0.1:{self.admin_port}"

    @property
    def worker_pids(self) -> list[int]:
        return sorted(self._workers)

    def start(self) -> "WorkerPool":
        from repro.evaluation.instrument import span

        with span("workers.start", workers=self.worker_count):
            self._listener = _make_listener(
                self.requested_host, self.requested_port, self.reuseport
            )
            self.host, self.port = self._listener.getsockname()[:2]
            self._admin_listener = _make_listener("127.0.0.1", 0, False)
            self.admin_port = self._admin_listener.getsockname()[1]

            pending_listeners: list[socket.socket | None]
            if self.reuseport:
                # Each worker gets its own acceptor. Crucially the
                # dispatcher's bootstrap listener must then CLOSE before
                # any connection arrives: a bound SO_REUSEPORT socket
                # nobody accepts on still receives its hash share of
                # connections, which would hang. Workers' sockets are
                # created first so the port is never unbound in between.
                pending_listeners = [
                    _make_listener(self.requested_host, self.port, True)
                    for _ in range(self.worker_count)
                ]
                self._listener.close()
                self._listener = None
            else:
                pending_listeners = [None] * self.worker_count

            version = self.service.snapshot.version
            self._manifest, self._segment = shm.publish_snapshot(
                self.service.metasearcher, epoch=version
            )
            self.service.install_shm_manifest(self._manifest)

            # Fork all workers before any dispatcher thread exists — the
            # children must not inherit a half-held lock. _pending lets
            # each child close the acceptors destined for later siblings
            # (an inherited never-accepted SO_REUSEPORT fd would keep a
            # dead queue alive and swallow connections).
            self._pending = pending_listeners
            try:
                for listener in pending_listeners:
                    self._spawn(listener)
            finally:
                self._pending = []
            for handle in self._workers.values():
                self._await_ready(handle)

            self._admin_server = make_server(
                self.service,
                sock=self._admin_listener,
                verbose=self.verbose,
                handler_base=DispatcherAdminHandler,
                handler_attrs={"pool": self},
            )
            self._admin_thread = threading.Thread(
                target=self._admin_server.serve_forever,
                kwargs={"poll_interval": 0.1},
                daemon=True,
            )
            self._admin_thread.start()
            self._reaper_thread = threading.Thread(
                target=self._reap_loop, daemon=True
            )
            self._reaper_thread.start()
            self._started = True
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _spawn(self, listener: socket.socket | None = None) -> int:
        if listener is None and self.reuseport:
            # Respawn path: the dead worker's acceptor is gone, so bind a
            # fresh SO_REUSEPORT socket for the replacement.
            listener = _make_listener(self.requested_host, self.port, True)
        parent_side, child_side = socket.socketpair()
        # Hold the global registry lock across fork: admin-handler and
        # reader threads record into it concurrently, and a child forked
        # while another thread holds it would deadlock on its very first
        # baseline snapshot (locks fork in their instantaneous state).
        with get_instrumentation().locked():
            pid = os.fork()
        if pid == 0:  # ---- worker process ----
            status = 1
            try:
                parent_side.close()
                if self._admin_listener is not None:
                    self._admin_listener.close()
                # Drop inherited ends belonging to sibling workers —
                # both already-spawned ones and later siblings' pending
                # acceptors.
                for sibling in self._workers.values():
                    sibling.close()
                for pending in self._pending:
                    if pending is not None and pending is not listener:
                        pending.close()
                accept_sock = (
                    listener if listener is not None else self._listener
                )
                if listener is not None and self._listener is not None:
                    self._listener.close()
                runtime = _WorkerRuntime(
                    self.service,
                    accept_sock,
                    child_side,
                    admin_url=self.admin_url,
                    verbose=self.verbose,
                    telemetry_interval=self.telemetry_interval,
                )
                runtime.run()
                status = 0
            finally:
                os._exit(status)
        # ---- dispatcher continues ----
        child_side.close()
        handle = _WorkerHandle(
            pid, parent_side, listener, absorb_telemetry=self._absorb_telemetry
        )
        handle.journal_length = len(self.service.journal)
        handle.epoch = self.service.snapshot.version
        self._workers[pid] = handle
        return pid

    def _await_ready(self, handle: _WorkerHandle) -> None:
        message = handle.recv(timeout=READY_TIMEOUT)
        if not message or "ready" not in message:
            raise RuntimeError(
                f"worker {handle.pid} failed its ready handshake: {message!r}"
            )
        handle.epoch = int(message.get("epoch", handle.epoch))
        handle.journal_length = int(
            message.get("journal_length", handle.journal_length)
        )

    # -- telemetry aggregation -------------------------------------------------

    def _absorb_telemetry(self, handle: _WorkerHandle, payload: dict) -> None:
        """Merge one worker's shipped delta into the pool registry.

        Runs on the worker's reader thread; only the telemetry condition
        is held, so absorption never contends with flips.
        """
        with self._telemetry_cv:
            delta = payload.get("instrumentation")
            if delta:
                self._pool_instrumentation.merge(delta)
            handle.telemetry = payload
            handle.epoch = int(payload.get("epoch", handle.epoch))
            token = payload.get("poll")
            if token is not None:
                handle.last_poll = int(token)
            self._telemetry_cv.notify_all()

    def collect_telemetry(self, timeout: float = TELEMETRY_POLL_TIMEOUT) -> bool:
        """Poll every live worker and wait for fresh telemetry.

        Sends each worker a tokened ``poll`` and blocks (bounded by
        ``timeout``) until every one of them has echoed its token. True
        means the pool registry now reflects every request each worker
        had completed when it answered — the exactness contract a
        post-load ``/metrics`` scrape relies on. False means at least
        one worker didn't answer in time (mid-flip, mid-respawn): the
        aggregate still serves, from that worker's last shipped state.
        """
        tokens: dict[_WorkerHandle, int] = {}
        for handle in list(self._workers.values()):
            token = next(self._poll_tokens)
            try:
                handle.send({"cmd": "poll", "token": token})
            except OSError:
                continue  # dying worker; the reaper will replace it
            tokens[handle] = token
        if not tokens:
            return True
        deadline = time.monotonic() + timeout

        def fresh() -> bool:
            return all(
                handle.last_poll is not None and handle.last_poll >= token
                for handle, token in tokens.items()
            )

        with self._telemetry_cv:
            while not fresh():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._telemetry_cv.wait(remaining)
        return True

    def aggregate_registry(self) -> Instrumentation:
        """Pool-wide registry: the dispatcher's own + every worker delta."""
        aggregate = Instrumentation()
        aggregate.merge(get_instrumentation().snapshot())
        with self._telemetry_cv:
            aggregate.merge(self._pool_instrumentation.snapshot())
        return aggregate

    def pool_stats(self) -> dict:
        """The /stats ``pool`` section: summed worker counters + detail."""
        with self._telemetry_cv:
            reports = [
                (handle.pid, dict(handle.telemetry or {}))
                for handle in self._workers.values()
            ]
        totals = {
            "requests": 0,
            "cache_hits": 0,
            "degraded": 0,
            "errors": 0,
            "shed": 0,
        }
        detail = []
        for pid, payload in sorted(reports):
            service = payload.get("service") or {}
            for key in totals:
                totals[key] += int(service.get(key, 0))
            detail.append(
                {
                    "pid": pid,
                    "epoch": payload.get("epoch"),
                    "seq": payload.get("seq"),
                    "requests": service.get("requests", 0),
                    "cache_hits": service.get("cache_hits", 0),
                    "degraded": service.get("degraded", 0),
                    "errors": service.get("errors", 0),
                    "shed": service.get("shed", 0),
                    "shm_segment": service.get("shm_segment"),
                }
            )
        local = self.service.stats_snapshot()
        return {
            "workers": len(reports),
            "respawns": self.respawns,
            "epoch": self.service.snapshot.version,
            "swaps": local.get("swaps", 0),
            "worker_detail": detail,
            **totals,
        }

    def metrics_text(self, fresh: bool = True) -> str:
        """Pool-wide Prometheus exposition (optionally freshly polled)."""
        polled = self.collect_telemetry() if fresh else True
        body = render_prometheus(self.aggregate_registry())
        if not polled:
            body = (
                "# NOTE some workers did not answer the freshness poll; "
                "their last shipped state is included instead\n" + body
            )
        return body

    # -- epoch flips -----------------------------------------------------------

    def apply_update(self, ops, verify: bool = False) -> dict:
        """Apply an update once, then flip every worker to the new epoch.

        Returns the dispatcher's update result annotated with the flip
        outcome. ``response_cache_retained`` is the sum of the entries
        each worker's cache kept across the swap, and
        ``worker_cache_retained`` maps each worker's pid to its own
        count: the workers answer every select, so the dispatcher's own
        cache stays empty. Only returns after the drain barrier: every
        live worker has acknowledged the new epoch, and the previous
        segment has been unlinked.
        """
        from repro.evaluation.instrument import count, span

        with self._flip_lock:
            packed: dict = {}

            def materialize(metasearcher, version):
                # Warm first so the pack covers the built matrices, then
                # share them; the service's own warm pass after this is a
                # cheap second visit over already-dense buffers.
                SelectionService._warm(metasearcher, self.service.config)
                packed["manifest"], packed["segment"] = shm.publish_snapshot(
                    metasearcher, epoch=version
                )
                return packed["manifest"]

            result = self.service.apply_update(
                ops, verify=verify, materialize=materialize
            )
            manifest = packed["manifest"]
            epoch = int(result["snapshot_version"])
            journal = self.service.journal

            with span("workers.flip", epoch=epoch):
                retained = self._broadcast_flip(epoch, journal, manifest)

            previous_segment = self._segment
            self._segment = packed["segment"]
            self._manifest = manifest
            if previous_segment is not None:
                previous_segment.close()
                previous_segment.unlink()
            count("workers.flips")
            result["epoch"] = epoch
            result["segment"] = manifest["segment"]
            result["workers_flipped"] = len(retained)
            result["workers"] = len(self._workers)
            result["response_cache_retained"] = sum(retained.values())
            result["worker_cache_retained"] = {
                str(pid): kept for pid, kept in sorted(retained.items())
            }
            return result

    def _broadcast_flip(
        self, epoch: int, journal: list, manifest: dict
    ) -> dict[int, int]:
        """Flip every worker to ``epoch``; the flipped workers' retained
        response-cache counts, by pid.

        Every worker gets its flip before any ack is read, so the workers
        catch up concurrently. The acks are collected against one shared
        :data:`FLIP_ACK_TIMEOUT` deadline, and the workers that failed
        are replaced last.
        """
        waiting: dict[int, _WorkerHandle] = {}
        failed: list[int] = []
        for pid, handle in list(self._workers.items()):
            try:
                handle.send(
                    {
                        "cmd": "flip",
                        "epoch": epoch,
                        "ops": journal[handle.journal_length:],
                        "manifest": manifest,
                    },
                )
                waiting[pid] = handle
            except OSError:
                failed.append(pid)
        retained: dict[int, int] = {}
        deadline = time.monotonic() + FLIP_ACK_TIMEOUT
        for pid, handle in waiting.items():
            ack = handle.recv(timeout=max(deadline - time.monotonic(), 0.0))
            if ack and ack.get("ack") == epoch:
                handle.epoch = epoch
                handle.journal_length = int(
                    ack.get("journal_length", len(journal))
                )
                retained[pid] = int(ack.get("response_cache_retained", 0))
            else:
                failed.append(pid)
        for pid in failed:
            # Dead or wedged: replace it. The respawn forks from the
            # dispatcher's *current* (post-update) state, so the
            # replacement is already on the new epoch, with the
            # dispatcher's (empty) response cache.
            self._discard_worker(pid, kill=True)
            try:
                replacement = self._workers[self._spawn()]
                self._await_ready(replacement)
                retained[replacement.pid] = 0
            except (OSError, RuntimeError):  # pragma: no cover
                pass
        return retained

    # -- worker supervision ----------------------------------------------------

    def _discard_worker(self, pid: int, kill: bool = False) -> None:
        handle = self._workers.pop(pid, None)
        if handle is None:
            return
        handle.close()
        if kill:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass

    def _reap_loop(self) -> None:
        while not self._shutting_down:
            time.sleep(0.2)
            for pid in list(self._workers):
                try:
                    reaped, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    reaped = pid
                if reaped != pid:
                    continue
                if self._shutting_down:
                    return
                # A worker died under us (crash, SIGTERM): replace it
                # from current state, under the flip lock so a respawn
                # never interleaves with an epoch broadcast.
                with self._flip_lock:
                    handle = self._workers.pop(pid, None)
                    if handle is not None:
                        handle.close()
                    if self._shutting_down:
                        return
                    self.respawns += 1
                    try:
                        replacement = self._workers[self._spawn()]
                        self._await_ready(replacement)
                    except (OSError, RuntimeError):  # pragma: no cover
                        pass

    def shutdown(self) -> None:
        """Stop workers, the admin server, and unlink every segment."""
        if self._shutting_down:
            return
        self._shutting_down = True
        if self._admin_server is not None:
            self._admin_server.shutdown()
            self._admin_server.server_close()
        for handle in list(self._workers.values()):
            try:
                handle.send({"cmd": "stop"})
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for pid in list(self._workers):
            remaining = max(deadline - time.monotonic(), 0.1)
            if not self._wait_exit(pid, remaining):
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
                if not self._wait_exit(pid, 2.0):  # pragma: no cover
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    self._wait_exit(pid, 2.0)
            handle = self._workers.pop(pid, None)
            if handle is not None:
                handle.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._segment is not None:
            self._segment.close()
            self._segment.unlink()
            self._segment = None

    @staticmethod
    def _wait_exit(pid: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                reaped, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return True
            if reaped == pid:
                return True
            time.sleep(0.02)
        return False
