"""CLI: ``python -m repro.serve --db examples/serve_db.json``.

Starts the TCP front end over a :class:`~repro.serve.service.
QueryService`.  ``--db`` takes either a JSON database file (the
:func:`~repro.serve.protocol.database_from_spec` format, optionally
prefixed ``name=`` — the file stem names the database otherwise) or a
generator shorthand from :mod:`repro.workloads` (``name=chain:16``,
``name=cycle:8``, ``name=random:12,24,7``).  With no ``--db`` the
built-in ``serve_databases()`` bank (main / atoms / pairs) is
registered, so the server is usable out of the box.

The process serves until SIGINT/SIGTERM, then shuts down gracefully:
stop accepting, drain admitted queries, join the workers, and print a
final STATS snapshot followed by the Prometheus-style metrics dump
(``--slow-query-ms N`` arms the slow-query log surfaced in both).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import threading

from ..model.schema import Database
from ..obs.export import render_prometheus
from ..store import Store
from ..workloads.generators import chain_graph, cycle_graph, random_graph, serve_databases
from .protocol import database_from_spec
from .server import ServeServer
from .service import QueryService


def load_db_spec(spec: str) -> tuple:
    """Parse one ``--db`` argument into ``(name, Database)``.

    Every malformed spec — a bad generator argument, a missing or
    unreadable file, JSON that is not a database — exits with a
    one-line error, never a traceback: this is the CLI boundary.
    """
    name, _, rest = spec.partition("=")
    if not rest:
        name, rest = "", spec
    for prefix, maker in (
        ("chain:", lambda arg: chain_graph(int(arg))),
        ("cycle:", lambda arg: cycle_graph(int(arg))),
        ("random:", lambda arg: random_graph(*(int(x) for x in arg.split(",")))),
    ):
        if rest.startswith(prefix):
            if not name:
                raise SystemExit(f"--db {spec!r}: generator specs need name=")
            try:
                return name, maker(rest[len(prefix):])
            except Exception as exc:  # noqa: BLE001 — CLI boundary
                raise SystemExit(
                    f"--db {spec!r}: bad generator arguments: {exc}"
                ) from exc
    path = pathlib.Path(rest)
    if not path.exists():
        raise SystemExit(f"--db {spec!r}: no such file")
    try:
        data = json.loads(path.read_text())
        database = database_from_spec(data)
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        raise SystemExit(f"--db {spec!r}: {exc}") from exc
    return name or path.stem, database


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve repro databases over newline-delimited JSON/TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7411)
    parser.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="[NAME=]SPEC",
        help="database: a JSON file, or name=chain:N / cycle:N / random:NODES,EDGES,SEED "
        "(repeatable; default: the built-in serve bank)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds (0 disables)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable store root: --db seeds become snapshot-0, databases "
        "already in DIR are crash-recovered (disk wins), and UPDATE "
        "commits through the write-ahead log",
    )
    parser.add_argument(
        "--no-sync",
        action="store_true",
        help="skip the per-commit fsync (faster, loses the last commits "
        "on power failure; process crashes stay safe)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="N",
        help="log requests slower than N milliseconds (with their EXPLAIN "
        "ANALYZE physical tree; surfaces in STATS under slow_queries)",
    )
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.db:
        databases: dict[str, Database] = dict(
            load_db_spec(spec) for spec in args.db
        )
    elif args.data_dir and any(Store(args.data_dir).discovered()):
        databases = {}  # recover what is on disk, seed nothing extra
    else:
        databases = serve_databases()
    service = QueryService(
        databases,
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        default_timeout=args.timeout or None,
        data_dir=args.data_dir,
        sync=not args.no_sync,
        slow_query_ms=args.slow_query_ms,
    )
    server = ServeServer(service, host=args.host, port=args.port)
    host, port = server.start()
    print(f"repro.serve listening on {host}:{port}", flush=True)
    print(f"databases: {', '.join(service.databases())}", flush=True)

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    print("shutting down...", flush=True)
    server.stop()
    print(json.dumps(service.stats(trace_limit=0), indent=2, sort_keys=True))
    print(render_prometheus(service.metrics), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
