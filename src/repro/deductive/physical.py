"""Physical-trace adapters for the deductive evaluators.

The COL and BK drivers execute through the kernel operators in
:mod:`repro.engine.ops`; these helpers shape the counters those
operators collected into the :class:`~repro.engine.exec.PhysNode` tree
EXPLAIN renders — one ``Fixpoint`` root carrying the round count, one
``Scan`` child per predicate extent carrying its rows/probes/index
actuals.
"""

from __future__ import annotations

from ..engine.ops import OpStats

__all__ = ["fixpoint_stats", "col_physical", "bk_physical"]


def fixpoint_stats(trace) -> OpStats | None:
    """A stats block for the fixpoint driver iff a trace is collecting."""
    return OpStats() if trace is not None else None


def col_physical(trace, label: str, stats: OpStats | None, interp) -> None:
    """Attach the COL run's operator tree (fixpoint over per-predicate
    scans, plus one ``RuleKernel`` node per compiled rule body with the
    chosen step order and estimated vs. actual cardinalities) to
    *trace*; no-op without one."""
    if trace is None:
        return
    root = trace.node("Fixpoint", label, stats)
    for name in sorted(interp.preds):
        root.child("Scan", name, interp.preds[name].stats)
    run = interp._kernels
    if run is None:
        return
    for kernel in run.kernels():
        node = root.child("RuleKernel", kernel.describe())
        for label, estimate, stats in kernel.step_rows():
            node.child("Step", f"{label} est={estimate}", stats)
    trace.kernel_stats = run.counters()


def bk_physical(trace, label: str, stats: OpStats | None, extents: dict) -> None:
    """Attach a BK run's operator tree (fixpoint over per-predicate
    attribute-indexed scans) to *trace*; no-op without one."""
    if trace is None:
        return
    root = trace.node("Fixpoint", label, stats)
    for name in sorted(extents):
        root.child("Scan", name, extents[name].stats)
