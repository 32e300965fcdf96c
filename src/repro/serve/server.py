"""The thin TCP front end over :class:`~repro.serve.service.QueryService`.

A :class:`socketserver.ThreadingTCPServer` speaking the newline-
delimited JSON protocol of :mod:`repro.serve.protocol`.  Connection
threads do no query work themselves — QUERY requests go through the
service's admission queue and worker pool, so the concurrency and
deadline story is identical for embedded and networked callers; the
handler thread merely blocks on the request's completion, mirroring a
synchronous client.

:class:`ServeServer` owns the listening socket and its ``serve_forever``
thread, and shuts down gracefully: stop accepting, close the listener,
then (by default) close the service, draining admitted work.  Protocol
errors are answered on the wire, not raised — one malformed line does
not kill the connection, and an unparseable op still gets a typed
response.
"""

from __future__ import annotations

import socketserver
import threading

from ..obs.export import render_prometheus
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    database_from_spec,
    decode_message,
    encode_message,
    error_response,
    int_field,
    ok_response,
    request_op,
    result_fields,
    timeout_field,
    update_ops_from_spec,
)
from .service import QueryService

__all__ = ["ServeServer", "serve"]


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: read lines, dispatch ops, write lines."""

    def handle(self) -> None:
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        for line in self.rfile:
            op = "?"
            try:
                message = decode_message(line)
                op = request_op(message)
                response = self._dispatch(service, op, message)
            except Exception as exc:  # noqa: BLE001 — answered, not raised
                response = error_response(op, exc)
            try:
                self.wfile.write(encode_message(response))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return

    def _dispatch(self, service: QueryService, op: str, message: dict) -> dict:
        if op == "PING":
            return ok_response(op, version=PROTOCOL_VERSION)
        if op == "STATS":
            limit = int_field(message, "trace_limit", 16)
            return ok_response(op, stats=service.stats(trace_limit=limit))
        if op == "METRICS":
            return ok_response(op, metrics=render_prometheus(service.metrics))
        if op == "LOAD":
            name = message.get("name")
            if not isinstance(name, str) or not name:
                raise ProtocolError('LOAD needs a "name" string')
            database = database_from_spec(message)
            service.load(name, database, replace=bool(message.get("replace")))
            return ok_response(op, name=name, facts=len(database.adom()))
        db = message.get("db")
        if op in ("UPDATE", "SNAPSHOT") and not isinstance(db, str):
            raise ProtocolError(f'{op} needs a "db" string')
        if op == "SNAPSHOT":
            return ok_response(op, **service.snapshot(db))
        if op == "UPDATE":
            # Decode type-directedly against the database's schema,
            # then commit through admission control like a query.
            session = service.session(db)
            asserts, retracts = update_ops_from_spec(session.database, message)
            outcome = service.update(
                db,
                asserts,
                retracts,
                timeout=timeout_field(message),
                priority=int_field(message, "priority", 0),
            )
            if outcome.status != "ok":
                try:
                    outcome.raise_for_status()
                except Exception as exc:  # noqa: BLE001 — typed by construction
                    return error_response(op, exc)
            return ok_response(op, **outcome.result)
        text = message.get("query")
        if not isinstance(db, str) or not isinstance(text, str):
            raise ProtocolError(f'{op} needs "db" and "query" strings')
        if op == "EXPLAIN":
            rendered = service.explain(
                db,
                text,
                run=bool(message.get("run")),
                backend=message.get("backend"),
            )
            return ok_response(op, explain=rendered)
        # QUERY: through admission control, wait for the outcome, and
        # surface timeout/evaluator failures as typed wire errors.
        outcome = service.query(
            db,
            text,
            backend=message.get("backend"),
            timeout=timeout_field(message),
            priority=int_field(message, "priority", 0),
        )
        if outcome.status != "ok":
            try:
                outcome.raise_for_status()
            except Exception as exc:  # noqa: BLE001 — typed by construction
                return error_response(op, exc)
        return ok_response(op, **result_fields(outcome))


class ServeServer:
    """The listening socket plus its accept-loop thread."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self._server.service = service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — with port 0, the kernel's pick."""
        return self._server.server_address[:2]

    def start(self) -> tuple:
        """Start accepting connections; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self, close_service: bool = True) -> None:
        """Graceful shutdown: listener first, then (optionally) the
        service — admitted queries drain before workers exit."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if close_service:
            self.service.close()

    def __enter__(self) -> "ServeServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve(service: QueryService, host: str = "127.0.0.1", port: int = 0) -> ServeServer:
    """Start a :class:`ServeServer` for *service* and return it."""
    server = ServeServer(service, host, port)
    server.start()
    return server
