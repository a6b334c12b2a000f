"""urllib client for the serving endpoints (``repro query``, CI smoke).

Nothing beyond the stdlib: requests are small JSON bodies and the server
is HTTP/1.1 on localhost in every intended use (CI smoke step, local
benchmarking, the ``repro query`` command).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections.abc import Sequence


class ServingError(RuntimeError):
    """An HTTP error response from the serving endpoint."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServingClient:
    """Thin JSON-over-HTTP client bound to one server base URL."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, path: str, payload: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        if payload is None:
            request = urllib.request.Request(url, method="GET")
        else:
            body = json.dumps(payload).encode("utf-8")
            request = urllib.request.Request(
                url,
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                detail = json.loads(error.read().decode("utf-8")).get(
                    "error", ""
                )
            except Exception:
                detail = error.reason
            raise ServingError(error.code, str(detail)) from error

    def healthz(self) -> dict:
        return self._request("/healthz")

    def stats(self) -> dict:
        return self._request("/stats")

    def metrics(self) -> str:
        """The raw ``/metrics`` Prometheus text exposition (not JSON)."""
        url = f"{self.base_url}/metrics"
        request = urllib.request.Request(url, method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServingError(error.code, str(error.reason)) from error

    def select(
        self,
        query: str | Sequence[str],
        algorithm: str = "cori",
        strategy: str = "shrinkage",
        k: int | None = None,
        timeout_seconds: float | None = None,
    ) -> dict:
        payload: dict = {
            "query": query if isinstance(query, str) else list(query),
            "algorithm": algorithm,
            "strategy": strategy,
        }
        if k is not None:
            payload["k"] = k
        if timeout_seconds is not None:
            payload["timeout_seconds"] = timeout_seconds
        return self._request("/select", payload)

    def update(
        self,
        ops: Sequence[dict],
        verify: bool = False,
        timeout: float | None = None,
    ) -> dict:
        """Apply lifecycle operations via ``POST /admin/update``.

        ``verify=True`` asks the server to check the hot-swapped cell
        against a from-scratch rebuild (bit-identity) before answering —
        much slower, so ``timeout`` can extend this one call's budget.
        """
        payload = {"ops": list(ops), "verify": verify}
        if timeout is None:
            return self._request("/admin/update", payload)
        saved = self.timeout
        self.timeout = timeout
        try:
            return self._request("/admin/update", payload)
        finally:
            self.timeout = saved

    def wait_until_ready(self, attempts: int = 50, delay: float = 0.2) -> dict:
        """Poll ``/healthz`` until the server answers (for CI startup).

        The server only listens once preloading is done, so the poll loop
        is absorbing connection refusals, not half-ready answers.
        """
        last_error: Exception | None = None
        for _ in range(attempts):
            try:
                return self.healthz()
            except (urllib.error.URLError, ConnectionError, OSError) as error:
                last_error = error
                time.sleep(delay)
        raise TimeoutError(
            f"server at {self.base_url} not ready after "
            f"{attempts * delay:.0f}s: {last_error}"
        )

