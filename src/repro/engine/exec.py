"""Physical execution traces — the operator tree behind one run.

The kernel operators in :mod:`repro.engine.ops` each carry an
:class:`~repro.engine.ops.OpStats` block; a :class:`PhysicalTrace`
collects those blocks into a tree of :class:`PhysNode`\\ s so that
EXPLAIN can render the *physical* plan a backend actually executed —
``HashJoin`` over ``Scan(R)``, the fixpoint's round count — with
post-run per-operator actuals, instead of just an opaque backend name.

Every counter in the rendering is a deterministic function of the data
and the plan (no wall-clock, no memory addresses), which is what allows
physical EXPLAIN output to be golden-tested byte-exact.

Evaluators accept ``trace=None`` and skip all collection; the planner's
``execute_plan`` passes a trace when the caller asked for actuals.
"""

from __future__ import annotations

from .ops import OpStats

__all__ = ["PhysNode", "PhysicalTrace"]


class PhysNode:
    """One operator instance in a physical plan tree."""

    __slots__ = ("op", "detail", "stats", "children")

    def __init__(self, op: str, detail: str = "", stats: OpStats | None = None):
        self.op = op
        self.detail = detail
        self.stats = stats if stats is not None else OpStats()
        self.children: list[PhysNode] = []

    def child(self, op: str, detail: str = "", stats: OpStats | None = None) -> "PhysNode":
        node = PhysNode(op, detail, stats)
        self.children.append(node)
        return node

    def label(self) -> str:
        head = f"{self.op}({self.detail})" if self.detail else self.op
        counters = self.stats.render()
        return f"{head} [{counters}]" if counters else head

    def lines(self, indent: int = 0) -> list[str]:
        out = ["  " * indent + self.label()]
        for child in self.children:
            out.extend(child.lines(indent + 1))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysNode({self.label()})"


class PhysicalTrace:
    """Collects the operator tree of one execution.

    A trace owns a single root (set by the backend adapter); evaluators
    grow the tree by calling ``child`` on nodes they were handed.  A
    ``None`` trace everywhere means "don't collect" — the operators then
    write their counters into throwaway stats blocks.
    """

    __slots__ = ("root", "kernel_stats")

    def __init__(self):
        self.root: PhysNode | None = None
        #: Compiled-kernel cache counters (hits/misses/invalidations)
        #: of the run, when the backend used rule kernels.
        self.kernel_stats: dict | None = None

    def node(self, op: str, detail: str = "", stats: OpStats | None = None) -> PhysNode:
        """Create (and install, if first) a root-level node."""
        node = PhysNode(op, detail, stats)
        if self.root is None:
            self.root = node
        else:
            self.root.children.append(node)
        return node

    def render(self, indent: int = 0) -> str | None:
        """The tree as indented lines, or None if nothing was traced."""
        if self.root is None:
            return None
        pad = "  " * indent
        return "\n".join(pad + line for line in self.root.lines())

    def totals(self) -> dict | None:
        """Whole-tree OpStats sums (``rows_in``, ``probes``, ...) — the
        per-request aggregate the serving layer folds into the
        ``engine.ops.*`` registry counters.  ``None`` when nothing was
        traced."""
        if self.root is None:
            return None
        totals = dict.fromkeys(OpStats.__slots__, 0)
        stack = [self.root]
        while stack:
            node = stack.pop()
            for name in OpStats.__slots__:
                totals[name] += getattr(node.stats, name)
            stack.extend(node.children)
        return totals
