#!/usr/bin/env python3
"""Crash-recovery smoke: commit over the wire, SIGKILL, recover, diff.

Starts ``python -m repro.serve --data-dir`` as a subprocess, commits a
handful of UPDATE transactions (and queries through them), then kills
the server with SIGKILL — no shutdown hook runs, exactly like a power
cut minus the disk cache.  A fresh service over the same data directory
must recover the identical canonical state: same ``state_sha256``, same
query answers, and the recovery counters must show the WAL tail was
actually replayed.  CI runs this file as the durability smoke test.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve import QueryService, ServeClient  # noqa: E402

TC = "rules { T(x, y) :- R(x, y). T(x, z) :- R(x, y), T(y, z). } answer T"
UPDATES = [
    {"asserts": {"R": [["a6", "a7"]]}},
    {"asserts": {"R": [["a7", "a8"], ["a8", "a9"]]}},
    {"retracts": {"R": [["a0", "a1"]]}},
]


def start_server(data_dir: str) -> tuple:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0", "--workers", "2", "--no-sync",
            "--data-dir", data_dir, "--db", "main=chain:6",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    banner = process.stdout.readline()
    match = re.search(r"listening on (\S+):(\d+)", banner)
    assert match, f"no listen banner, got {banner!r}"
    return process, match.group(1), int(match.group(2))


def main() -> None:
    with tempfile.TemporaryDirectory() as data_dir:
        process, host, port = start_server(data_dir)
        print(f"server up on {host}:{port}, data under {data_dir}")

        with ServeClient(host, port, seed=0) as client:
            for update in UPDATES:
                reply = client.update(
                    "main",
                    asserts=update.get("asserts"),
                    retracts=update.get("retracts"),
                )
                assert reply["ok"] and reply["durable"], reply
                print(f"UPDATE lsn={reply['lsn']} +{reply['asserted']} "
                      f"-{reply['retracted']}")
            answer = client.query("main", TC)["result"]
            store = client.stats()["databases"]["main"]["store"]
            assert store["lsn"] == len(UPDATES) and store["wal_size"] > 0

        process.send_signal(signal.SIGKILL)  # no cleanup runs: a crash
        process.wait(timeout=30)
        print(f"killed the server (sha {store['state_sha256'][:16]}...)")

        recovered = QueryService(workers=1, data_dir=data_dir, sync=False)
        try:
            stats = recovered.stats()
            after = stats["databases"]["main"]["store"]
            assert after["state_sha256"] == store["state_sha256"], (
                "canonical state diverged across the crash:\n"
                f"  before {store['state_sha256']}\n"
                f"  after  {after['state_sha256']}"
            )
            assert stats["metrics"]["store.recoveries"] == 1
            assert after["replayed_records"] == len(UPDATES)
            assert after["lsn"] == len(UPDATES)
            replayed = repr(recovered.query("main", TC).raise_for_status())
            assert replayed == answer, "query answers diverged after recovery"
            print(json.dumps(
                {
                    "recovered_lsn": after["lsn"],
                    "replayed_records": after["replayed_records"],
                    "state_sha256": after["state_sha256"],
                },
                indent=2, sort_keys=True,
            ))
        finally:
            recovered.close()
    print("crash recovery smoke passed: canonical state is byte-identical")


if __name__ == "__main__":
    main()
