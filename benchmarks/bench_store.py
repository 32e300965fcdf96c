"""Durable store — warm restart.

Recovery time from a fresh snapshot (no replay) against recovery that
replays the whole WAL from snapshot-0, both yielding byte-identical
canonical state: a measurement of :mod:`repro.store` that doubles as a
correctness assertion from the durability acceptance criteria.
"""

import time

from repro.store import CompactionPolicy, DurableDatabase, canonical_state_bytes
from repro.store.codec import rows_from_json
from repro.workloads.generators import chain_graph

#: Cold recovery replays a long stream, so it is solidly
#: replay-dominated (a stable speedup for the gate).
WAL_COMMITS = [{"R": [[f"a{8 + i}", f"a{9 + i}"]]} for i in range(96)]

#: Compaction off: the warm-restart bench controls snapshots itself.
NEVER = CompactionPolicy(max_records=1 << 30, max_bytes=1 << 60)


def _best_of(fn, repeats: int = 3) -> float:
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best


def test_warm_restart_beats_full_replay(benchmark, engine_record, tmp_path):
    durable = DurableDatabase.create(
        tmp_path / "db", chain_graph(8), sync=False, policy=NEVER
    )
    for batch in WAL_COMMITS:
        asserts = {
            "R": rows_from_json(
                batch["R"], durable.database.schema.rtype("R"), "R"
            )
        }
        durable.apply(asserts)
    expected = canonical_state_bytes(durable.database)
    durable.close()

    def recover():
        recovered = DurableDatabase.open(tmp_path / "db", sync=False)
        replayed = recovered.stats.replayed_records
        state = canonical_state_bytes(recovered.database)
        recovered.close()
        return replayed, state

    # Cold: snapshot-0 plus the whole WAL.
    replayed, state = benchmark(recover)
    assert replayed == len(WAL_COMMITS) and state == expected
    cold = _best_of(lambda: recover(), repeats=5)

    # Checkpoint, then recover again: the snapshot carries everything.
    checkpointed = DurableDatabase.open(tmp_path / "db", sync=False)
    checkpointed.snapshot()
    checkpointed.close()
    replayed, state = recover()
    assert replayed == 0 and state == expected  # byte-identical, no replay
    warm = _best_of(lambda: recover(), repeats=5)

    engine_record(
        "store_warm_restart",
        workload=f"recovery after {len(WAL_COMMITS)} commits: snapshot-0 "
        "+ full WAL replay vs fresh snapshot",
        cold_seconds=round(cold, 4),
        warm_seconds=round(warm, 4),
        replayed_records=len(WAL_COMMITS),
        speedup=round(cold / warm, 2),
    )
    assert warm < cold  # compaction buys restart time
