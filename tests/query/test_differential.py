"""Cross-backend differential testing + golden EXPLAIN output.

Acceptance harness for the query layer: a bank of surface queries, each
planned against its database and executed on *every* candidate backend
the planner considers.  All defined results must agree exactly; an
undefined result (``?``) agrees with anything (Hoare equivalence — the
paper's machines only promise agreement where they halt).

The EXPLAIN output for the whole bank is golden-tested: plans are
deterministic (integer cost model, fixed candidate ordering), so the
rendered text must match ``golden/explain.txt`` byte for byte.
Regenerate after an intentional planner change with:

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/query/test_differential.py
"""

import os
import pathlib

import pytest

from repro.budget import Budget
from repro.errors import is_undefined
from repro.model.schema import Database, Schema
from repro.model.types import parse_type
from repro.query.explain import render_actuals, render_plan
from repro.query.parser import parse
from repro.query.planner import build_plan, execute_plan


GOLDEN = pathlib.Path(__file__).parent / "golden" / "explain.txt"
GOLDEN_ACTUALS = pathlib.Path(__file__).parent / "golden" / "actuals.txt"

MAIN_SCHEMA = Schema(
    {
        "R": parse_type("[U, U]"),
        "S": parse_type("U"),
        "N": parse_type("{U}"),
    }
)
DATABASES = {
    "main": Database.from_plain(
        MAIN_SCHEMA,
        R=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "a")],
        S=["a", "c"],
        N=[{"a", "b"}, {"c"}],
    ),
    # Tiny single-predicate databases for the machine routes: the
    # calc-terminal simulation enumerates domains, so keep these small.
    "atoms": Database.from_plain(
        Schema({"R": parse_type("U")}), R=["a", "b"]
    ),
    "pairs": Database.from_plain(
        Schema({"R": parse_type("[U, U]")}), R=[("a", "b"), ("b", "a")]
    ),
}

# (database key, query text) — ordering is part of the golden file.
BANK = [
    # Set literals
    ("main", "{ 1, 2 }"),
    ("main", "{ [1, 'a'], [2, 'b'] }"),
    # Comprehensions: conjunctive core (algebra + COL + calculus)
    ("main", "{ x | S(x) }"),
    ("main", "{ [x, y] | R([x, y]) }"),
    ("main", "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }"),
    ("main", "{ [x, z] | some y / U : R([x, y]) and R([y, z]) and S(x) }"),
    ("main", "{ x | S(x) and x = 'a' }"),
    ("main", "{ [x, y] | R([x, y]) and S(x) }"),
    ("main", "{ [x, y] | R([x, y]) and x = y }"),
    ("main", "{ [x, y] | R([x, 'a']) and R([x, y]) }"),
    # Comprehensions with COL-only or calculus-only features
    ("main", "{ x | S(x) and not R([x, x]) }"),
    ("main", "{ [x, y] | R([x, y]) and x != y }"),
    ("main", "{ x | S(x) or R([x, x]) }"),
    ("main", "{ x | some s / {U} : N(s) and S(x) and x in s }"),
    ("main", "{ x | all y / U : R([x, y]) or S(x) }"),
    # Algebra pipelines
    ("main", "R |> select(1 = 2) |> project(1)"),
    ("main", "R |> project(1)"),
    ("main", "R |> select(1 = 'a') |> project(2)"),
    ("main", "S |> powerset"),
    # COL rule blocks
    ("main", "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T"),
    ("main", "rules { T(x) :- S(x). } answer T"),
    ("main", "rules { Q(x, y) :- R(x, y), S(x). } answer Q"),
    ("main", "rules { P(x) :- S(x), not T(x). T(x) :- R(x, x). } answer P"),
    # Constant-bound recursive blocks: the demand (magic-set) rewrite
    (
        "main",
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
        "Q(x, y) :- T(x, y), x = 'b', y = 'd'. } answer Q",
    ),
    (
        "main",
        "rules { T(x, z) :- R(x, y), T(y, z). T(x, y) :- R(x, y). "
        "Q(y) :- T('b', y). } answer Q",
    ),
    # BK rule blocks
    ("main", "bk { A(x) :- S(x). } answer A"),
    ("atoms", "bk { A(x) :- R(x). } answer A"),
    ("atoms", "bk { A(x) :- R(x), R(x). } answer A"),
    # Generalized Turing machines via the simulation routes
    ("atoms", "gtm parity"),
    ("atoms", "gtm is_empty"),
    ("atoms", "gtm duplicate"),
    ("pairs", "gtm identity"),
    ("pairs", "gtm reverse"),
]


def _ids():
    return [f"{db}:{text[:40]}" for db, text in BANK]


def _plan(db_key, text):
    database = DATABASES[db_key]
    return build_plan(parse(text, schema=database.schema), database), database


class TestDifferential:
    @pytest.mark.parametrize("db_key,text", BANK, ids=_ids())
    def test_all_backends_agree(self, db_key, text):
        plan, database = _plan(db_key, text)
        assert plan.candidates, f"no backend for {text!r}"
        results = {}
        for backend in plan.backends():
            report = execute_plan(plan, database, Budget(), backend=backend)
            results[backend] = report.result
        defined = {
            backend: result
            for backend, result in results.items()
            if not is_undefined(result)
        }
        # Hoare equivalence: every pair of *defined* results agrees.
        distinct = set(defined.values())
        assert len(distinct) <= 1, f"backends disagree on {text!r}: {defined}"
        # And the planner's chosen backend is one that actually halts
        # within a default budget for every bank query.
        assert plan.chosen.backend in defined or not defined

    def test_bank_is_large_enough(self):
        assert len(BANK) >= 25

    def test_bank_covers_every_form(self):
        forms = {_plan(db, text)[0].query.form for db, text in BANK}
        assert forms == {"literal", "comprehension", "pipeline", "rules", "bk", "gtm"}

    def test_plans_are_history_independent(self):
        """A plan is a function of (query, database): executing the
        whole bank (each plan's chosen backend, three times) leaves
        every later plan's candidates, costs and memo fingerprint
        exactly as they were."""

        def snapshot():
            plans = [_plan(db_key, text)[0] for db_key, text in BANK]
            return [
                ([(c.backend, c.cost) for c in plan.candidates], plan.fingerprint)
                for plan in plans
            ]

        before = snapshot()
        for _ in range(3):
            for db_key, text in BANK:
                plan, database = _plan(db_key, text)
                execute_plan(plan, database, Budget())
        assert snapshot() == before


class TestGoldenExplain:
    def _render_bank(self):
        chunks = []
        for db_key, text in BANK:
            plan, _ = _plan(db_key, text)
            chunks.append(f"### database: {db_key}\n{render_plan(plan)}")
        return "\n\n".join(chunks) + "\n"

    def test_explain_matches_golden(self):
        rendered = self._render_bank()
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN.write_text(rendered)
        assert GOLDEN.exists(), "golden file missing; run with REGEN_GOLDEN=1"
        assert rendered == GOLDEN.read_text()


#: (database key, query text, forced backend) — the physical-actuals
#: bank.  Every counter in the rendering is data-derived (rows, probes,
#: index builds, fixpoint rounds — no wall-clock), so the full actuals
#: section is as golden-testable as the plan itself.
ACTUALS_BANK = [
    ("main", "R |> select(1 = 'a') |> project(2)", "algebra"),
    ("main", "{ [x, z] | some y / U : R([x, y]) and R([y, z]) }", "algebra"),
    (
        "main",
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T",
        "col-stratified",
    ),
    (
        "main",
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). } answer T",
        "col-naive",
    ),
    ("main", "rules { Q(x, y) :- R(x, y), S(x). } answer Q", "col-inflationary"),
    (
        "main",
        "rules { T(x, y) :- R(x, y). T(x, z) :- T(x, y), R(y, z). "
        "Q(x, y) :- T(x, y), x = 'b', y = 'd'. } answer Q",
        "col-demand",
    ),
    # Three-literal body written in pessimal textual order: the golden
    # rendering pins the cost-based order the kernel actually chose
    # (narrow S first, then index probes) with est= vs rows_ counters.
    (
        "main",
        "rules { Q(x, z) :- R(x, y), R(y, z), S(x). } answer Q",
        "col-stratified",
    ),
    ("main", "bk { A(x) :- S(x). } answer A", "bk-hashjoin"),
    ("atoms", "bk { A(x) :- R(x), R(x). } answer A", "bk-hashjoin"),
    ("main", "{ x | S(x) and not R([x, x]) }", "calculus"),
]


class TestGoldenActuals:
    def _render_bank(self):
        chunks = []
        for db_key, text, backend in ACTUALS_BANK:
            plan, database = _plan(db_key, text)
            report = execute_plan(plan, database, Budget(), backend=backend)
            chunks.append(
                f"### database: {db_key}\n### backend: {backend}\n"
                f"EXPLAIN ANALYZE {text}\n{render_actuals(report)}"
            )
        return "\n\n".join(chunks) + "\n"

    def test_actuals_match_golden(self):
        rendered = self._render_bank()
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_ACTUALS.write_text(rendered)
        assert GOLDEN_ACTUALS.exists(), (
            "golden file missing; run with REGEN_GOLDEN=1"
        )
        assert rendered == GOLDEN_ACTUALS.read_text()

    def test_physical_tree_present_for_kernel_backends(self):
        for db_key, text, backend in ACTUALS_BANK:
            plan, database = _plan(db_key, text)
            report = execute_plan(plan, database, Budget(), backend=backend)
            assert report.physical, f"no physical tree for {backend}: {text!r}"
            assert "Scan(" in report.physical

    def test_rule_kernels_render_chosen_order_with_estimates(self):
        # The three-literal entry: textual body order is R, R, S; the
        # kernel must render its cost-chosen per-rule order with one
        # Step per literal carrying est= (plan) and rows_ (actual).
        db_key, text, backend = next(
            entry for entry in ACTUALS_BANK if "S(x). } answer Q" in entry[1]
            and entry[2] == "col-stratified"
        )
        plan, database = _plan(db_key, text)
        report = execute_plan(plan, database, Budget(), backend=backend)
        physical = report.physical
        assert "RuleKernel(" in physical
        assert "est=" in physical
        assert "rows_out=" in physical
        # The narrow unary literal seeds the join: S's step renders
        # before either R step inside the kernel body.
        kernel_block = physical[physical.index("RuleKernel(") :]
        assert kernel_block.index("Step(S(") < kernel_block.index("Step(R(")
        # Cache traffic is surfaced alongside the tree.
        assert report.kernel_cache is not None
        assert report.kernel_cache["misses"] > 0
