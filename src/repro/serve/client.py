"""A retrying client for the serve wire protocol.

:class:`ServeClient` keeps one persistent connection and retries two
failure classes the serving layer deliberately produces:

* **retryable wire errors** — the admission controller's fast
  rejections (``"retryable": true``), where the protocol's contract is
  "back off and resend";
* **transport errors** — connection refused/reset while the server
  restarts or sheds load.

Retries use capped exponential backoff with jitter: attempt *n* sleeps
``backoff * 2^n`` (capped), scaled by a random factor in ``[1 - jitter,
1 + jitter]`` so a herd of rejected clients does not resynchronise into
the next burst.  The PRNG is seedable for deterministic tests.
Non-retryable errors raise immediately as :class:`ServeClientError`
carrying the wire error's type and message.
"""

from __future__ import annotations

import random
import socket
import time

from ..errors import ReproError
from .protocol import decode_message, encode_message

__all__ = ["RetriesExhausted", "ServeClient", "ServeClientError"]


class ServeClientError(ReproError):
    """The server answered with a non-retryable typed error."""

    def __init__(self, error: dict):
        super().__init__(f"{error.get('type')}: {error.get('message')}")
        self.type = error.get("type")
        self.retryable = bool(error.get("retryable"))


class RetriesExhausted(ServeClientError):
    """Every retry failed; carries the last wire error."""


class ServeClient:
    """A synchronous client: one socket, newline-delimited JSON calls."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connect_timeout: float = 5.0,
        call_timeout: float | None = 60.0,
        retries: int = 5,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.5,
        seed: int | None = None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._file = None

    # -- transport ------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.call_timeout)
        self._sock = sock
        self._file = sock.makefile("rb")

    def _disconnect(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- calls ----------------------------------------------------------

    def _sleep(self, attempt: int) -> None:
        delay = min(self.backoff * (2 ** attempt), self.backoff_cap)
        scale = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        time.sleep(max(0.0, delay * scale))

    def _roundtrip(self, message: dict) -> dict:
        if self._sock is None:
            self._connect()
        assert self._sock is not None and self._file is not None
        self._sock.sendall(encode_message(message))
        line = self._file.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return decode_message(line)

    def call(self, message: dict, retry: bool = True) -> dict:
        """Send one request; return the decoded ``ok`` response.

        Retries transport failures and retryable wire errors (with
        backoff + jitter) up to ``retries`` times when *retry* is set;
        raises :class:`RetriesExhausted` after the last attempt and
        :class:`ServeClientError` for non-retryable wire errors.
        """
        attempts = (self.retries + 1) if retry else 1
        last_error: dict | None = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(attempt - 1)
            try:
                response = self._roundtrip(message)
            except (OSError, ConnectionError) as exc:
                self._disconnect()
                last_error = {
                    "type": "transport",
                    "message": str(exc),
                    "retryable": True,
                }
                if not retry:
                    raise ServeClientError(last_error) from exc
                continue
            if response.get("ok"):
                return response
            error = response.get("error") or {}
            if retry and error.get("retryable"):
                last_error = error
                continue
            raise ServeClientError(error)
        raise RetriesExhausted(last_error or {"type": "transport", "message": "no attempts"})

    # -- protocol convenience -------------------------------------------

    def ping(self) -> dict:
        return self.call({"op": "PING"})

    def query(
        self,
        db: str,
        text: str,
        *,
        backend: str | None = None,
        timeout: float | None | object = "default",
        priority: int = 0,
        retry: bool = True,
    ) -> dict:
        message: dict = {"op": "QUERY", "db": db, "query": text, "priority": priority}
        if backend is not None:
            message["backend"] = backend
        if timeout != "default":
            message["timeout"] = timeout
        return self.call(message, retry=retry)

    def explain(self, db: str, text: str, *, run: bool = False, backend=None) -> str:
        message: dict = {"op": "EXPLAIN", "db": db, "query": text, "run": run}
        if backend is not None:
            message["backend"] = backend
        return self.call(message)["explain"]

    def load(self, name: str, schema: dict, instances: dict, replace: bool = False) -> dict:
        return self.call(
            {
                "op": "LOAD",
                "name": name,
                "schema": schema,
                "instances": instances,
                "replace": replace,
            }
        )

    def update(
        self,
        db: str,
        asserts: dict | None = None,
        retracts: dict | None = None,
        *,
        timeout: float | None | object = "default",
        priority: int = 0,
        retry: bool = True,
    ) -> dict:
        """Commit one fact-batch transaction against *db*.

        ``asserts`` / ``retracts`` map predicate names to row arrays in
        the LOAD row format.  The response carries the *effective*
        counts, whether the commit is durable, and the commit LSN
        (``null`` without a durable store).  Retryable only up to the wire:
        a transaction rejected at admission never ran, so resending is
        safe; one that failed mid-commit reports a non-retryable error.
        """
        message: dict = {"op": "UPDATE", "db": db, "priority": priority}
        if asserts:
            message["assert"] = asserts
        if retracts:
            message["retract"] = retracts
        if timeout != "default":
            message["timeout"] = timeout
        return self.call(message, retry=retry)

    def snapshot(self, db: str) -> dict:
        """Checkpoint *db* now (durable stores only)."""
        return self.call({"op": "SNAPSHOT", "db": db})

    def stats(self, trace_limit: int = 16) -> dict:
        return self.call({"op": "STATS", "trace_limit": trace_limit})["stats"]

    def metrics_text(self) -> str:
        """The server's Prometheus-style text dump (the METRICS op)."""
        return self.call({"op": "METRICS"})["metrics"]
