"""The newline-delimited JSON wire protocol.

One request per line, one response per line — a framing every language
can speak with a socket and a JSON parser.  Requests are objects with
an ``"op"`` field (``PING`` / ``QUERY`` / ``EXPLAIN`` / ``LOAD`` /
``STATS`` / ``METRICS``, which returns the Prometheus-style text dump
of :mod:`repro.obs`); responses echo the op and carry either ``"ok":
true`` plus
op-specific fields or ``"ok": false`` plus a typed error object::

    -> {"op": "QUERY", "db": "main", "query": "{ x | S(x) }"}
    <- {"op": "QUERY", "ok": true, "result": "{a, c}", "undefined": false, ...}

    -> {"op": "QUERY", "db": "main", "query": "..."}     (queue full)
    <- {"op": "QUERY", "ok": false,
        "error": {"type": "rejected", "message": "...", "retryable": true}}

``retryable`` is the admission controller's signal to clients: resend
after a backoff and the identical request can succeed.  Query results
travel as their ``repr`` — values store members pre-sorted (PR 2), so
the rendering is canonical and two byte-identical ``result`` strings
mean equal objects.

``LOAD`` ships a database as plain JSON: an ``rtype`` string per
predicate (the :func:`~repro.model.types.parse_type` syntax) and rows
as nested arrays.  JSON has no sets or tuples, so
:func:`value_from_json` rebuilds values **type-directedly** — an array
is a tuple under ``[U, U]`` and a set under ``{U}``.
"""

from __future__ import annotations

import json

from ..errors import ReproError, is_undefined
from ..model.schema import Database
from ..model.types import RType
from ..store.codec import (
    CodecError,
    database_from_spec as _codec_database_from_spec,
    rows_from_json,
    value_from_json as _codec_value_from_json,
)
from .service import ServeError

__all__ = [
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "database_from_spec",
    "decode_message",
    "encode_message",
    "error_response",
    "int_field",
    "ok_response",
    "result_fields",
    "timeout_field",
    "update_ops_from_spec",
    "value_from_json",
]

PROTOCOL_VERSION = 1

OPS = (
    "PING", "QUERY", "EXPLAIN", "LOAD", "STATS", "METRICS", "UPDATE",
    "SNAPSHOT",
)


class ProtocolError(ServeError):
    """A message violates the wire protocol (malformed, unknown op)."""

    code = "protocol"


def encode_message(message: dict) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    """Parse one line into a message dict (typed errors, never raw)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def request_op(message: dict) -> str:
    op = message.get("op")
    if not isinstance(op, str) or op.upper() not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(OPS)})"
        )
    return op.upper()


def int_field(message: dict, key: str, default: int) -> int:
    """The message's integer *key* (*default* when absent)."""
    value = message.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f'"{key}" must be an integer, got {value!r}')
    return value


def timeout_field(message: dict):
    """The message's ``timeout`` in seconds: ``None`` means no deadline,
    and an absent field means the service default."""
    if "timeout" not in message:
        return "default"
    value = message["timeout"]
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, (int, float))
    ):
        raise ProtocolError(f'"timeout" must be a number or null, got {value!r}')
    return value


# -- responses --------------------------------------------------------------


def ok_response(op: str, **fields) -> dict:
    return {"op": op, "ok": True, **fields}


def error_response(op: str, exc: Exception) -> dict:
    """Map an exception to the wire's typed error object.

    :class:`~repro.serve.service.ServeError` subclasses carry their own
    ``code`` and ``retryable``; other :class:`~repro.errors.ReproError`
    s become non-retryable ``"error"``; anything else is reported as an
    ``"internal"`` error (still as a response — the connection
    survives a bad request).
    """
    if isinstance(exc, ServeError):
        code, retryable = exc.code, exc.retryable
    elif isinstance(exc, ReproError):
        code, retryable = "error", False
    else:
        code, retryable = "internal", False
    return {
        "op": op,
        "ok": False,
        "error": {
            "type": code,
            "message": str(exc),
            "retryable": retryable,
        },
    }


def result_fields(outcome) -> dict:
    """The QUERY response fields for a completed request outcome."""
    trace = outcome.trace
    return {
        "result": repr(outcome.result),
        "undefined": is_undefined(outcome.result),
        "backend": trace.backend,
        "cached": trace.cached,
        "cause": trace.cause,
        "queue_wait": trace.queue_wait(),
        "execution_seconds": trace.execution_seconds(),
        "request_id": trace.request_id,
    }


# -- LOAD / UPDATE: databases and fact batches from plain JSON --------------
#
# The type-directed decoding lives in :mod:`repro.store.codec` — one
# codec shared by the wire ops, the write-ahead log, and snapshots.
# These wrappers only translate its typed errors into the wire's
# :class:`ProtocolError`.


def value_from_json(data, rtype: RType):
    """Rebuild a value from JSON data, directed by its declared rtype."""
    try:
        return _codec_value_from_json(data, rtype)
    except CodecError as exc:
        raise ProtocolError(str(exc)) from exc


def database_from_spec(spec: dict) -> Database:
    """A :class:`Database` from the LOAD payload / ``--db`` JSON file.

    ``spec`` is ``{"schema": {pred: rtype-string}, "instances":
    {pred: [row, ...]}}``; missing predicates default to empty.
    """
    try:
        return _codec_database_from_spec(spec)
    except CodecError as exc:
        raise ProtocolError(str(exc)) from exc


def update_ops_from_spec(database: Database, message: dict) -> tuple:
    """``(asserts, retracts)`` fact batches from an UPDATE message.

    The message carries ``"assert"`` / ``"retract"`` objects mapping
    predicate names to row arrays in the LOAD row format; either may be
    absent.  Rows decode type-directedly against *database*'s schema.
    """
    schema = database.schema
    decoded: list = []
    for key in ("assert", "retract"):
        batches = message.get(key, {})
        if not isinstance(batches, dict):
            raise ProtocolError(f'"{key}" must be an object of predicate rows')
        ops: dict = {}
        for name, rows in batches.items():
            if name not in schema:
                raise ProtocolError(f"{key}: unknown predicate {name!r}")
            try:
                ops[name] = rows_from_json(rows, schema.rtype(name), name)
            except CodecError as exc:
                raise ProtocolError(str(exc)) from exc
        decoded.append(ops)
    asserts, retracts = decoded
    if not asserts and not retracts:
        raise ProtocolError('UPDATE needs an "assert" or "retract" object')
    return asserts, retracts
