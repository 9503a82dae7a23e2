"""Index-set splitting: peeling guard-selected boundary iterations.

Code sinking plants guards like ``if (i .EQ. k)`` (run once, at the loop's
first iteration) and ``if (i .GE. k+1)`` (run everywhere else) inside
``do i = k, N``. Unswitching cannot remove them — they depend on the loop
variable — but *splitting the index set* can::

    do i = k, N { if (i==k) A; if (i>=k+1) B }
    ==>
    if (k <= N) { A[i:=k] }
    do i = k+1, N { B }

The pass peels the first iteration whenever that provably simplifies at
least one guard, deciding implication/contradiction with the polyhedral
layer (conditions and bounds are affine; opaque guards just stay). Together
with unswitching this completes the paper's "the effect of code sinking is
undone as much as possible".
"""

from __future__ import annotations

from repro.errors import NotAffineError
from repro.ir.affine import cond_to_constraints, expr_to_linexpr
from repro.ir.builder import cle
from repro.ir.program import Program
from repro.ir.stmt import If, Loop, Stmt
from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.linexpr import LinExpr
from repro.poly.integer import implies, rationally_empty
from repro.poly.polyhedron import Polyhedron
from repro.trans.peel import substitute_var


def _facts_polyhedron(constraints: list[Constraint]) -> Polyhedron:
    names = sorted({v for c in constraints for v in c.variables()})
    return Polyhedron(tuple(names), constraints)


def _simplify_guards(
    stmts: tuple[Stmt, ...], facts: list[Constraint]
) -> tuple[tuple[Stmt, ...], int]:
    """Drop guards implied by *facts*; remove branches they contradict.

    Returns (new statements, number of simplifications). Only top-level
    guards are touched — nested loops re-bind variables, so recursion stops
    at them.
    """
    fact_poly = _facts_polyhedron(facts)
    changed = 0
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, If) and not s.orelse:
            try:
                conds = cond_to_constraints(s.cond)
            except NotAffineError:
                out.append(s)
                continue
            widened = fact_poly.with_variables(
                tuple(
                    dict.fromkeys(
                        fact_poly.variables
                        + tuple(
                            v for c in conds for v in sorted(c.variables())
                        )
                    )
                )
            )
            if all(implies(widened, c) for c in conds):
                inner, inner_changed = _simplify_guards(s.then, facts)
                out.extend(inner)
                changed += 1 + inner_changed
                continue
            if rationally_empty(widened.with_constraints(conds)):
                changed += 1
                continue
            out.append(s)
        else:
            out.append(s)
    return tuple(out), changed


def split_first_iteration(
    loop: Loop, outer_facts: list[Constraint] | None = None
) -> list[Stmt] | None:
    """Peel ``var = lower`` off *loop* when it simplifies guards.

    *outer_facts* are constraints known at the loop's position (enclosing
    affine guards); facts mentioning the loop variable are discarded (the
    loop re-binds it). Returns the replacement statements, or None when
    nothing simplifies.
    """
    if not loop.has_unit_step:
        return None
    try:
        lo = expr_to_linexpr(loop.lower)
        hi = expr_to_linexpr(loop.upper)
    except NotAffineError:
        return None
    var = LinExpr.var(loop.var)
    outer = [
        c for c in (outer_facts or []) if loop.var not in c.variables()
    ]

    # Bounds may carry min/max intrinsics (tiled code); expr_to_linexpr
    # above rejects those, so lo/hi here are plain affine.
    first_facts = outer + [eq0(var - lo), ge0(hi - var)]
    rest_facts = outer + [ge0(var - lo - 1), ge0(hi - var)]
    first_body, n1 = _simplify_guards(loop.body, first_facts)
    rest_body, n2 = _simplify_guards(loop.body, rest_facts)
    if n1 + n2 == 0:
        return None

    out: list[Stmt] = []
    if first_body:
        peeled = tuple(
            substitute_var(s, loop.var, loop.lower) for s in first_body
        )
        # The peeled iteration exists only when the range is non-empty.
        out.append(If(cle(loop.lower, loop.upper), peeled))
    if rest_body:
        from repro.ir.expr import BinOp, Const

        out.append(
            Loop(
                loop.var,
                BinOp("+", loop.lower, Const(1)),
                loop.upper,
                rest_body,
            )
        )
    return out


def split_point_guards(program: Program) -> Program:
    """Apply :func:`split_first_iteration` throughout, innermost-first,
    threading enclosing affine guard facts downward."""

    def rec_stmt(s: Stmt, facts: list[Constraint]) -> list[Stmt]:
        if isinstance(s, Loop):
            inner_facts = [c for c in facts if s.var not in c.variables()]
            body: list[Stmt] = []
            for t in s.body:
                body.extend(rec_stmt(t, inner_facts))
            new_loop = Loop(s.var, s.lower, s.upper, tuple(body), s.step)
            replaced = split_first_iteration(new_loop, facts)
            return replaced if replaced is not None else [new_loop]
        if isinstance(s, If):
            try:
                then_facts = facts + cond_to_constraints(s.cond)
            except NotAffineError:
                then_facts = facts
            then: list[Stmt] = []
            for t in s.then:
                then.extend(rec_stmt(t, then_facts))
            orelse: list[Stmt] = []
            for t in s.orelse:
                orelse.extend(rec_stmt(t, facts))
            if not then and not orelse:
                return []
            return [If(s.cond, tuple(then), tuple(orelse))]
        return [s]

    body: list[Stmt] = []
    for s in program.body:
        body.extend(rec_stmt(s, []))
    return program.with_body(tuple(body))


def undo_sinking(program: Program) -> Program:
    """Paper Sec. 4: "the effect of code sinking is undone as much as
    possible" — unswitch invariant guards, propagate guard facts, then
    split the per-point guards out of the loops."""
    from repro.trans.cleanup import propagate_guard_facts
    from repro.trans.unswitch import unswitch_invariant_guards

    return split_point_guards(
        propagate_guard_facts(unswitch_invariant_guards(program))
    )
