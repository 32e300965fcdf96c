#!/usr/bin/env python3
"""Serving quickstart: server up, client smoke, graceful shutdown.

Starts the TCP front end over a :class:`repro.serve.QueryService`
loaded from ``examples/serve_db.json`` (the same database the README
quickstart uses), then speaks the whole wire protocol once — PING, a
QUERY, an EXPLAIN, STATS — through the retrying client, and shuts the
stack down cleanly.  CI runs this file as the serving smoke test.
"""

import json
import pathlib

from repro.serve import QueryService, ServeClient, ServeServer, database_from_spec


def main() -> None:
    spec = json.loads(
        (pathlib.Path(__file__).parent / "serve_db.json").read_text()
    )
    service = QueryService({"main": database_from_spec(spec)}, workers=4)
    server = ServeServer(service, port=0)  # port 0: kernel picks a free one
    host, port = server.start()
    print(f"serving on {host}:{port}")

    with ServeClient(host, port, seed=0) as client:
        pong = client.ping()
        print("PING   :", pong)
        assert pong["ok"] and pong["version"] >= 1

        reply = client.query(
            "main", "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"
        )
        print("QUERY  :", reply["result"], f"(backend={reply['backend']})")
        assert reply["ok"] and not reply["undefined"]

        # The same query again hits the shared memo cache.
        again = client.query(
            "main", "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"
        )
        assert again["result"] == reply["result"] and again["cached"]

        explain = client.explain("main", "{ x | S(x) }", run=True)
        print("EXPLAIN:")
        print("\n".join("  " + line for line in explain.splitlines()))
        assert "actuals:" in explain

        stats = client.stats()
        metrics = stats["metrics"]
        print("STATS  :", json.dumps(
            {
                "accepted": metrics["serve.queries.accepted"],
                "completed": metrics["serve.queries.completed"],
                "memo_hits": metrics["db.main.memo.hits"],
            },
            sort_keys=True,
        ))
        assert metrics["serve.queries.completed"] == metrics["serve.queries.accepted"] == 2
        assert metrics["db.main.memo.hits"] >= 1

    server.stop()  # graceful: drains admitted work, joins the workers
    print("shut down cleanly")


if __name__ == "__main__":
    main()
