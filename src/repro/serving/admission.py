"""Admission control for the serving path (DESIGN.md §5j).

Degradation (service.py) protects a request that is *already running*
from blowing its latency budget; admission control protects the budget
of every request *behind* it. Without it, a saturated server queues
arrivals unboundedly: every queued request eventually runs, blows its
deadline, and degrades — the worst of both worlds (full work done, poor
answer returned, client long gone).

:class:`AdmissionController` is a counting gate in front of scoring. At
most ``max_inflight`` requests score concurrently; up to ``max_queue``
more may wait ``queue_timeout_seconds`` for a slot. Everything beyond
that is *shed immediately* with :class:`ServiceOverloaded`, which the
HTTP layer maps to ``429 Too Many Requests`` + ``Retry-After``. Shedding
answers the client in microseconds instead of holding its connection
open to deliver a degraded answer late — no request is left unanswered.

The gate is optional (``ServiceConfig.max_inflight is None`` preserves
the ungated behavior exactly) and lock-only-briefly: its condition
variable is held for counter arithmetic, never across scoring.
"""

from __future__ import annotations

import threading
import time


class ServiceOverloaded(RuntimeError):
    """Raised when admission control sheds a request (HTTP 429).

    ``retry_after_seconds`` is the client hint carried in the
    ``Retry-After`` header; ``reason`` distinguishes a full queue
    (``"queue_full"``) from a queue-wait timeout (``"queue_timeout"``).
    """

    def __init__(self, retry_after_seconds: float, reason: str) -> None:
        super().__init__(
            f"service overloaded ({reason}); retry after "
            f"{retry_after_seconds:g}s"
        )
        self.retry_after_seconds = retry_after_seconds
        self.reason = reason


class AdmissionController:
    """Bounded accept gate: ``max_inflight`` running, ``max_queue`` waiting.

    ``acquire`` either returns (a slot is held; the caller must
    ``release``) or raises :class:`ServiceOverloaded` — within
    ``queue_timeout_seconds`` at the latest, which callers should set
    well below the degradation deadline so a shed answer always beats a
    degraded one.
    """

    def __init__(
        self,
        max_inflight: int,
        max_queue: int = 16,
        queue_timeout_seconds: float = 0.05,
        retry_after_seconds: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.queue_timeout_seconds = float(queue_timeout_seconds)
        self.retry_after_seconds = float(retry_after_seconds)
        self._clock = clock
        self._cv = threading.Condition()
        self._inflight = 0
        self._waiting = 0

    def acquire(self) -> None:
        """Take an inflight slot, waiting briefly in the bounded queue."""
        with self._cv:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._waiting >= self.max_queue:
                raise ServiceOverloaded(
                    self.retry_after_seconds, "queue_full"
                )
            self._waiting += 1
            try:
                deadline = self._clock() + self.queue_timeout_seconds
                while self._inflight >= self.max_inflight:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        raise ServiceOverloaded(
                            self.retry_after_seconds, "queue_timeout"
                        )
                    self._cv.wait(remaining)
                self._inflight += 1
            finally:
                self._waiting -= 1

    def release(self) -> None:
        with self._cv:
            self._inflight -= 1
            self._cv.notify()

    def occupancy(self) -> dict:
        """Current gate state (for /stats debugging)."""
        with self._cv:
            return {
                "inflight": self._inflight,
                "waiting": self._waiting,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
            }

