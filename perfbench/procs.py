"""Child processes of a run: launch, read their lines, stop them for good."""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import threading
import time
from pathlib import Path


class BenchError(RuntimeError):
    """A run that cannot produce a result (the benchmark exits non-zero)."""


def child_env(root: Path, extra: dict | None = None) -> dict:
    """The environment of every program process a run starts.

    The program comes from the checkout's ``src``; BLAS pools are pinned to
    one thread (one closed-loop client on a 2-core host), string hashing is
    fixed so dict and set layouts repeat from process to process, and no
    ``REPRO_*`` setting (slow-query log, trace memory) leaks in.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.update(extra or {})
    return env


class Child:
    """A started process whose stdout lines arrive on a queue."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, stderr_path: Path) -> None:
        self.argv = argv
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "w", encoding="utf-8")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_line(self, predicate, deadline: float) -> tuple[str, float]:
        """The first stdout line matching ``predicate`` and when it came."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"timed out waiting on {self.argv[1:3]}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(f"{self.argv[1:3]} exited early; {self.stderr_tail()}")
            if predicate(line):
                return line, time.monotonic()

    def stderr_tail(self, lines: int = 8) -> str:
        self._stderr.flush()
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-lines:])

    def wait(self, deadline: float) -> int:
        try:
            code = self.proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.argv[1:3]} did not finish in time") from None
        self._reader.join(timeout=5.0)
        self._stderr.close()
        return code

    def terminate(self, deadline: float) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(deadline)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            pass
        if not self._stderr.closed:
            self._stderr.close()


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` still exists as a process that is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def wait_gone(pids, timeout: float) -> list[int]:
    """Pids still alive after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if pid_alive(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if pid_alive(pid)]
    return alive


def shm_segments(prefix: str = "repro_shm") -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
    except FileNotFoundError:
        return set()


def pss_mb(pids) -> float:
    """Summed proportional set size: shared pages split among their users."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
