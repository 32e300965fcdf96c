"""Launch ``repro.serve`` with a timer around each layer's public functions.

The benchmark's traced run starts the server through this launcher::

    python benchmarks/e2e/server.py --trace-dir DIR [repro.serve arguments]

It replaces each function named in :data:`LAYERS` with a wrapper that
records, per call, the monotonic clock at return and the call's *self
time*: its duration minus the durations of wrapped calls it made on the
same thread.  It then runs ``repro.serve.__main__.main`` unchanged.
When ``main`` returns on SIGTERM, it reads the measured window the load
generator wrote to ``DIR/window.json`` and writes ``DIR/trace.json``:
per layer metric, the calls that returned inside the window and their
summed self time in milliseconds.

Nothing under ``src/`` changes; the wrappers are installed by attribute
assignment before the server builds anything.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import pathlib
import sys
import threading
import time
from array import array

#: layer metric -> the functions it times, as ``module:attribute.path``.
#: Functions imported by name are wrapped where the caller looks them up.
LAYERS = {
    "serve.protocol.decode_ms": ["repro.serve.server:decode_message"],
    "serve.protocol.encode_ms": ["repro.serve.server:encode_message"],
    "query.session.run_ms": ["repro.query.session:Session.run"],
    "query.session.plan_ms": ["repro.query.session:Session.plan"],
    "query.parser.parse_ms": ["repro.query.session:parse"],
    "query.planner.build_plan_ms": ["repro.query.session:build_plan"],
    "query.planner.execute_plan_ms": ["repro.query.session:execute_plan"],
    "engine.cache.memo_run_ms": ["repro.engine.cache:MemoCache.run"],
    "engine.cache.program_fingerprint_ms": ["repro.engine.cache:program_fingerprint"],
    "engine.canon.canonicalise_database_ms": ["repro.engine.cache:canonicalise_database"],
    "engine.canon.renaming_ms": [
        "repro.engine.canon:Renaming.__call__",
        "repro.engine.canon:Renaming.inverse",
    ],
    "model.schema.restrict_ms": ["repro.model.schema:Database.restrict"],
    "engine.ops.fixpoint_ms": ["repro.engine.ops:FixpointDriver.run"],
    "store.durable.apply_ms": ["repro.store.durable:DurableDatabase.apply"],
    "store.wal.append_ms": ["repro.store.wal:WriteAheadLog.append"],
    "store.durable.snapshot_ms": ["repro.store.durable:DurableDatabase.snapshot"],
    "query.session.apply_delta_ms": ["repro.query.session:Session.apply_delta"],
    "catalog.migrate_ms": ["repro.catalog.catalog:Catalog.migrate"],
    "serve.service.stats_ms": ["repro.serve.service:QueryService.stats"],
    "store.snapshot.canonical_state_bytes_ms": ["repro.serve.service:canonical_state_bytes"],
}


class Recorder:
    """Per-layer arrays of (return time, self time) in nanoseconds.

    ``array.append`` is atomic under the interpreter lock, so worker and
    handler threads record without a lock of their own.
    """

    def __init__(self):
        self._local = threading.local()
        self.returned = {name: array("q") for name in LAYERS}
        self.self_ns = {name: array("q") for name in LAYERS}

    def wrap(self, layer: str, fn):
        local = self._local
        returned, self_ns = self.returned[layer], self.self_ns[layer]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                elapsed = end - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                returned.append(end)
                self_ns.append(elapsed - children)

        return timed

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                module, _, path = target.partition(":")
                *parents, attr = path.split(".")
                owner = importlib.import_module(module)
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(layer, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(layer, raw))

    def totals(self, start_ns: int, end_ns: int) -> dict:
        """Per layer: calls that returned in ``[start_ns, end_ns]`` and
        their summed self time in milliseconds."""
        totals = {}
        for layer in LAYERS:
            calls, self_total = 0, 0
            for end, own in zip(self.returned[layer], self.self_ns[layer]):
                if start_ns <= end <= end_ns:
                    calls += 1
                    self_total += own
            totals[layer] = {"calls": calls, "self_ms": self_total / 1e6}
        return totals


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    parser.add_argument("--trace-dir", required=True, type=pathlib.Path)
    args, serve_argv = parser.parse_known_args(argv)
    recorder = Recorder()
    recorder.install()
    from repro.serve.__main__ import main as serve_main

    code = serve_main(serve_argv)
    window = json.loads((args.trace_dir / "window.json").read_text())
    totals = recorder.totals(window["start_ns"], window["end_ns"])
    (args.trace_dir / "trace.json").write_text(json.dumps(totals, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
