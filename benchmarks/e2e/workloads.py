"""The four workloads of the end-to-end benchmark, built from a seed.

Everything the server sees is made here: the databases (written as JSON
files and passed with ``--db``) and the request messages.  Each workload
also carries the reference answers its replies are checked against,
computed by a fresh in-process :class:`~repro.query.session.Session`
before the server starts.

The workloads are chosen so that one layer does most of the work in
each and little in another (see ``README.md``):

* ``bank_warm`` — memo and plan hits on tiny databases: wire, JSON,
  handler and worker hand-off;
* ``graph_warm`` — memo hits on a 32-node graph: memo keying
  (canonicalisation) of the database;
* ``graph_cold`` — more distinct texts than the memo and plan caches
  hold: parse, plan, and fixpoint;
* ``durable_mixed`` — one writer committing through the WAL beside one
  reader whose queries are half outside and half inside the writes'
  footprint.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.query.session import Session
from repro.store import canonical_state_bytes, database_from_spec, database_to_spec
from repro.workloads import SERVE_QUERY_BANK, request_stream, serve_databases

#: Every ``STATS_EVERY``-th op of the durable writer is a STATS scrape.
STATS_EVERY = 25


@dataclass
class Workload:
    """One workload's inputs, reference answers, and premises."""

    #: database name -> JSON spec (``{"schema": ..., "instances": ...}``)
    specs: dict
    #: messages sent once, in order, before the warm-up
    prime: list
    #: ``(db, text)`` -> the ``result`` strings a reply may carry
    expected: dict
    #: returns one endless iterator of request messages per connection
    make_streams: Callable[[], list]
    #: allowed range of the window's memo hit ratio (STATS delta)
    memo_hit_ratio: tuple = (0.0, 1.0)
    #: ``(db, text)`` whose replies must be memo hits in >= 95% of cases
    must_hit: frozenset = field(default_factory=frozenset)
    #: serve from a ``--data-dir`` store (UPDATEs commit through the WAL)
    durable: bool = False


def _query(db: str, text: str, priority: int = 0) -> dict:
    return {"op": "QUERY", "db": db, "query": text, "priority": priority}


def _reference(specs: dict, keys) -> dict:
    """``(db, text)`` -> its answer from a fresh in-process session."""
    databases = {name: database_from_spec(spec) for name, spec in specs.items()}
    return {
        (db, text): frozenset({repr(Session(databases[db]).run(text)[0])})
        for db, text in sorted(set(keys))
    }


def _split(sequence: list, ways: int = 2) -> list:
    """*ways* endless iterators taking alternate items of the cycled
    *sequence*, so concurrent connections never send the same item at
    once and each item recurs only once per full cycle."""
    return [
        itertools.islice(itertools.cycle(sequence), offset, None, ways)
        for offset in range(ways)
    ]


def _graph(rng: random.Random, nodes: int, edges: int, prefix: str) -> tuple:
    """A strongly connected random graph of fixed shape, relabelled.

    The shape, a Hamiltonian cycle plus random chords, comes from a
    constant seed; *rng* only names its nodes.  Every workload seed so
    gets an isomorphic graph, and queries are generic, so every seed
    asks the server for the same work: seeds vary atom names and request
    order, not cost.  Returns ``(edges, names)``; ``names[i]`` labels
    shape node *i*, so callers pick constants by shape position.
    """
    shape = random.Random(f"{prefix}/{nodes}/{edges}")
    ring = shape.sample(range(nodes), nodes)
    rows = {(ring[i], ring[(i + 1) % nodes]) for i in range(nodes)}
    while len(rows) < edges:
        rows.add(tuple(shape.sample(range(nodes), 2)))
    names = [f"{prefix}{label}" for label in rng.sample(range(nodes), nodes)]
    return sorted((names[a], names[b]) for a, b in rows), names


def _spec(**instances) -> dict:
    """The JSON spec of a database of binary edge relations."""
    return {
        "schema": {pred: "[U, U]" for pred in instances},
        "instances": {pred: [list(edge) for edge in edges] for pred, edges in instances.items()},
    }


def _select_from(pred: str, constant: str) -> str:
    return f"{pred} |> select(1 = '{constant}') |> project(2)"


def _reach_from(pred: str, constant: str) -> str:
    return f"rules {{ T(y) :- {pred}('{constant}', y). T(z) :- T(y), {pred}(y, z). }} answer T"


def _closure_pair(a: str, b: str) -> str:
    return (
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
        f"Q(x, y) :- T(x, y), x = '{a}', y = '{b}'. }} answer Q"
    )


def _select_pair(a: str, b: str) -> str:
    return f"R |> select(1 = '{a}', 2 = '{b}')"


def _two_hop(a: str, b: str) -> str:
    return f"{{ y | R(['{a}', y]) and R([y, '{b}']) }}"


def bank_warm(seed: int) -> Workload:
    specs = {name: database_to_spec(db) for name, db in serve_databases().items()}
    stream = [_query(*request) for request in request_stream(4096, seed=seed)]
    return Workload(
        specs=specs,
        prime=[_query(db, text) for db, text in SERVE_QUERY_BANK],
        expected=_reference(specs, SERVE_QUERY_BANK),
        make_streams=lambda: _split(stream),
        memo_hit_ratio=(0.99, 1.0),
    )


def graph_warm(seed: int) -> Workload:
    rng = random.Random(f"graph_warm/{seed}")
    rows, names = _graph(rng, 32, 80, "a")
    specs = {"g": _spec(R=rows)}
    texts = [_select_from("R", c) for c in names[:8]]
    texts += [_reach_from("R", c) for c in names[8:16]]
    sequence = [_query("g", text) for text in texts * 64]
    rng.shuffle(sequence)
    return Workload(
        specs=specs,
        prime=[_query("g", text) for text in texts],
        expected=_reference(specs, [("g", text) for text in texts]),
        make_streams=lambda: _split(sequence),
        memo_hit_ratio=(0.99, 1.0),
    )


#: Constant pairs per graph_cold template: 3 x 512 = 1536 distinct
#: texts, 3x the memo's 512 entries and 6x the plan LRU's 256, so a
#: cycle through them misses both caches on every request.
COLD_PAIRS = 512
#: graph_cold texts checked against an in-process reference; replies to
#: the others must agree with each other when a text repeats.
COLD_REFERENCE_SAMPLE = 64


def graph_cold(seed: int) -> Workload:
    rng = random.Random(f"graph_cold/{seed}")
    # 24 nodes rather than 32: a full closure of 32 nodes holds the
    # server under 60 requests/s here, too close to the 50/s the p99
    # needs for 1000 samples per 20-s window.
    rows, names = _graph(rng, 24, 60, "a")
    specs = {"g": _spec(R=rows)}
    shape_pairs = [(a, b) for a in range(24) for b in range(24) if a != b]
    random.Random("graph_cold/pairs").shuffle(shape_pairs)
    pairs = [(names[a], names[b]) for a, b in shape_pairs[:COLD_PAIRS]]
    # Templates take turns, so every stretch of the cycle (and each
    # connection's share of it) holds the three in equal parts.
    columns = []
    for template in (_closure_pair, _select_pair, _two_hop):
        texts = [template(a, b) for a, b in pairs]
        rng.shuffle(texts)
        columns.append(texts)
    texts = [text for row in zip(*columns) for text in row]
    sample = rng.sample(texts, COLD_REFERENCE_SAMPLE)
    sequence = [_query("g", text) for text in texts]
    return Workload(
        specs=specs,
        prime=[],
        expected=_reference(specs, [("g", text) for text in sample]),
        make_streams=lambda: _split(sequence),
        memo_hit_ratio=(0.0, 0.01),
    )


class ToggleWriter:
    """The durable writer's endless op sequence, and its replay.

    UPDATE *k* asserts toggle edge ``(k // 2) % 3`` of ``E`` when *k* is
    even and retracts it when odd, so ``E`` only ever holds its base
    facts plus at most one toggle edge: four valid states.  Every
    ``STATS_EVERY``-th op is a STATS scrape instead.  :attr:`edges`
    replays the sent UPDATEs on a plain set, independently of the store.
    """

    def __init__(self, r_rows: list, e_rows: list, toggles: list):
        self.r_rows = r_rows
        self.toggles = toggles
        self.edges = frozenset(e_rows)
        self.updates = 0
        self._ops = itertools.count(1)

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        if next(self._ops) % STATS_EVERY == 0:
            return {"op": "STATS", "trace_limit": 0}
        edge = self.toggles[(self.updates // 2) % len(self.toggles)]
        if self.updates % 2 == 0:
            key, self.edges = "assert", self.edges | {edge}
        else:
            key, self.edges = "retract", self.edges - {edge}
        self.updates += 1
        return {"op": "UPDATE", "db": "g", key: {"E": [list(edge)]}}

    def state_sha256(self) -> str:
        """The ``state_sha256`` STATS must report once every UPDATE sent
        so far has committed."""
        database = database_from_spec(_spec(R=self.r_rows, E=sorted(self.edges)))
        return hashlib.sha256(canonical_state_bytes(database)).hexdigest()


def durable_mixed(seed: int) -> Workload:
    rng = random.Random(f"durable_mixed/{seed}")
    # R and E use disjoint atoms, so a delta to E meets an R query's
    # memo footprint in neither predicate nor atom.
    r_rows, r_names = _graph(rng, 16, 40, "b")
    e_rows, e_names = _graph(rng, 16, 40, "a")
    shape_absent = sorted(
        (a, b) for a in range(16) for b in range(16)
        if a != b and (e_names[a], e_names[b]) not in set(e_rows)
    )
    toggles = [
        (e_names[a], e_names[b])
        for a, b in random.Random("durable_mixed/toggles").sample(shape_absent, 3)
    ]
    r_texts = [_select_from("R", c) for c in r_names[:4]]
    r_texts += [_reach_from("R", c) for c in r_names[4:8]]
    e_texts = [_select_from("E", c) for c in e_names[:4]]
    e_texts += [_reach_from("E", c) for c in e_names[4:8]]

    specs = {"g": _spec(R=r_rows, E=e_rows)}
    expected = _reference(specs, [("g", text) for text in r_texts])
    for state in [e_rows] + [sorted({*e_rows, edge}) for edge in toggles]:
        state_specs = {"g": _spec(R=r_rows, E=state)}
        for key, answers in _reference(state_specs, [("g", t) for t in e_texts]).items():
            expected[key] = expected.get(key, frozenset()) | answers

    reads = [_query("g", text) for text in (r_texts + e_texts) * 64]
    rng.shuffle(reads)
    return Workload(
        specs=specs,
        prime=[_query("g", text) for text in r_texts + e_texts],
        expected=expected,
        make_streams=lambda: [ToggleWriter(r_rows, e_rows, toggles), itertools.cycle(reads)],
        must_hit=frozenset(("g", text) for text in r_texts),
        durable=True,
    )


BUILDERS = {
    "bank_warm": bank_warm,
    "graph_warm": graph_warm,
    "graph_cold": graph_cold,
    "durable_mixed": durable_mixed,
}
