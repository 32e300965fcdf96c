"""EXPLAIN rendering.

Two sections with different determinism contracts:

* the **plan** section (:func:`render_plan`) is a pure function of the
  query text and the database's instance statistics — integer costs,
  fixed ordering, no wall-clock — and is golden-tested in CI;
* the **actuals** section (:func:`render_actuals`) reports what one
  execution did (backend run, budget spend, fixpoint rounds, the
  physical operator tree with per-operator counters, cache and
  interner traffic) and is appended only when a query was actually run.
  Operator counters are data-derived (no wall-clock), so actuals for a
  fixed query/database/backend are byte-stable and golden-testable too.
"""

from __future__ import annotations

from ..errors import is_undefined
from ..model.values import Value
from .planner import ExecutionReport, Plan


def render_plan(plan: Plan) -> str:
    query = plan.query
    profile = plan.profile
    lines = [
        f"EXPLAIN {query.text}",
        f"  form: {query.describe()}",
        (
            f"  database: {profile['total_facts']} fact(s) across "
            f"{len(profile['sizes'])} predicate(s), adom {profile['adom']}, "
            f"max depth {profile['max_depth']}"
        ),
    ]
    if plan.rewrites:
        lines.append("  rewrites:")
        for rewrite in plan.rewrites:
            sign = "+" if rewrite.applied else "-"
            lines.append(f"    {sign} {rewrite.name}: {rewrite.note}")
    lines.append("  candidates:")
    for index, cand in enumerate(plan.candidates):
        marker = "->" if index == 0 else "  "
        lines.append(
            f"    {marker} {cand.backend:<16} cost {cand.cost:<12} {cand.detail}"
        )
    lines.append(
        "  cache: "
        + (
            "generic (memoized exactly; permuted isomorphs share entries)"
            if plan.generic
            else "non-generic (invention-capable; bypasses the memo cache)"
        )
    )
    return "\n".join(lines)


def _describe_result(result) -> str:
    if is_undefined(result):
        return "? (undefined)"
    if isinstance(result, Value):
        stats = []
        if hasattr(result, "items"):
            stats.append(f"{len(result.items)} member(s)")
        stats.append(f"depth {result.depth}")
        stats.append(f"size {result.size}")
        return f"{', '.join(stats)}"
    return repr(result)


def _counter_lines(counters: dict) -> list[str]:
    """Render the cache/interner block from a flat dotted-key mapping.

    *counters* follows the :mod:`repro.obs` schema (``query.memo.hits``,
    ``query.plans.misses``, ``engine.intern.hits``, ...); a family is
    rendered only when at least one of its keys is present, so callers
    control the block by what they pass, not by extra flags.
    """

    def has(prefix: str) -> bool:
        return any(key.startswith(prefix + ".") for key in counters)

    def get(key: str):
        return counters.get(key, 0)

    lines = []
    if has("query.memo"):
        lines.append(
            "    memo cache: "
            f"hits={get('query.memo.hits')} misses={get('query.memo.misses')} "
            f"bypasses={get('query.memo.bypasses')}"
        )
    if has("query.plans"):
        lines.append(
            "    plan cache: "
            f"hits={get('query.plans.hits')} misses={get('query.plans.misses')}"
        )
    if has("engine.intern"):
        lines.append(
            "    interner: "
            f"hits={get('engine.intern.hits')} misses={get('engine.intern.misses')}"
        )
    return lines


def render_actuals(
    report: ExecutionReport,
    counters: dict | None = None,
) -> str:
    lines = ["  actuals:"]
    if report.cached:
        lines.append(f"    backend: {report.backend} (cache hit; not re-run)")
    else:
        lines.append(f"    backend: {report.backend}")
    lines.append(f"    result: {_describe_result(report.result)}")
    spent = {k: v for k, v in report.spent.items() if v}
    if spent:
        budget_bits = ", ".join(f"{k}={v}" for k, v in sorted(spent.items()))
        lines.append(f"    spent: {budget_bits}")
        if report.rounds():
            lines.append(f"    fixpoint rounds: {report.rounds()}")
    if report.physical:
        lines.append("    physical:")
        lines.extend(
            "      " + line for line in report.physical.splitlines()
        )
    if report.kernel_cache:
        kc = report.kernel_cache
        lines.append(
            "    kernel cache: "
            f"hits={kc['hits']} misses={kc['misses']} "
            f"invalidations={kc['invalidations']}"
        )
    if counters:
        lines.extend(_counter_lines(counters))
    return "\n".join(lines)


def render(
    plan: Plan,
    report: ExecutionReport | None = None,
    counters: dict | None = None,
) -> str:
    text = render_plan(plan)
    if report is not None:
        text += "\n" + render_actuals(report, counters)
    return text


def explain(text: str, database, run: bool = False, backend=None, budget=None) -> str:
    """One-shot EXPLAIN: plan *text* against *database* and render it.

    Convenience wrapper over a throwaway :class:`~repro.query.session.Session`;
    pass ``run=True`` to execute the chosen backend and append actuals."""
    from .session import Session

    return Session(database, budget=budget).explain(text, run=run, backend=backend)
