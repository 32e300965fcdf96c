"""repro.engine — the shared execution runtime.

Its pieces are usable independently and composed by the benchmark and
example harnesses:

* :mod:`~repro.engine.seminaive` — delta-driven fixpoint drivers, the
  default evaluation strategy of the deductive semantics;
* :mod:`~repro.engine.cache` — genericity-aware memoization keyed on
  canonicalised databases (:mod:`~repro.engine.canon`), so
  permuted-isomorphic inputs share one entry;
* :mod:`~repro.engine.runner` — a process-parallel suite runner with
  per-task sub-budgets, wall-clock timeouts observed as ``?``, and
  structured :class:`~repro.engine.runner.RunReport` output;
* :mod:`~repro.engine.ops` — the physical-operator kernel (budget
  instrumented :class:`~repro.engine.ops.Scan` / hash joins / streaming
  select-project / :class:`~repro.engine.ops.FixpointDriver`) that all
  four evaluator stacks execute through;
* :mod:`~repro.engine.exec` — physical execution traces
  (:class:`~repro.engine.exec.PhysicalTrace`) rendered by EXPLAIN as
  per-operator post-run actuals.

Hash-consing is not an engine piece: it is how the value model builds
every value (:mod:`repro.model.intern`).
"""

from .cache import CacheStats, LRUCache, MemoCache, program_fingerprint
from .canon import Renaming, canonical_atom, canonicalise_database
from .deadline import DeadlineBudget, DeadlineExceeded, with_deadline
from .exec import PhysicalTrace, PhysNode
from .ops import (
    ATTR_ATOM,
    ATTR_PRESENT,
    ATTR_REST,
    FIRST_COORDINATE,
    FixpointDriver,
    HashJoin,
    IndexSpec,
    OpStats,
    Scan,
    TupleKey,
    distinct,
    nested_loop_join,
    project,
    select,
    set_construct,
)
from .runner import RunReport, RunTask, TaskReport, run_suite
from .seminaive import seminaive_fixpoint, seminaive_inflationary_fixpoint

__all__ = [
    "CacheStats",
    "LRUCache",
    "MemoCache",
    "program_fingerprint",
    "Renaming",
    "canonical_atom",
    "canonicalise_database",
    "DeadlineBudget",
    "DeadlineExceeded",
    "with_deadline",
    "RunReport",
    "RunTask",
    "TaskReport",
    "run_suite",
    "seminaive_fixpoint",
    "seminaive_inflationary_fixpoint",
    "ATTR_ATOM",
    "ATTR_PRESENT",
    "ATTR_REST",
    "FIRST_COORDINATE",
    "FixpointDriver",
    "HashJoin",
    "IndexSpec",
    "OpStats",
    "Scan",
    "TupleKey",
    "distinct",
    "nested_loop_join",
    "project",
    "select",
    "set_construct",
    "PhysicalTrace",
    "PhysNode",
]
