"""Bridging IR expressions and the polyhedral layer.

Loop bounds, array subscripts and guard conditions must be affine in the
loop variables and parameters for the dependence analysis to be exact;
these helpers recognise the affine fragment and convert in both directions.
"""

from __future__ import annotations

from repro.errors import NotAffineError
from repro.ir.expr import (
    BinOp,
    Cmp,
    Const,
    Expr,
    LogicalAnd,
    UnOp,
    VarRef,
)
from repro.poly.constraint import Constraint, Kind, eq0, ge0
from repro.poly.linexpr import LinExpr


def expr_to_linexpr(expr: Expr) -> LinExpr:
    """Convert an affine IR expression to a :class:`LinExpr`.

    Raises :class:`NotAffineError` for anything outside the affine fragment
    (array references, intrinsics, products of variables, float constants).
    """
    if isinstance(expr, Const):
        if isinstance(expr.value, float):
            raise NotAffineError(f"float constant {expr.value} in affine context")
        return LinExpr.const(expr.value)
    if isinstance(expr, VarRef):
        return LinExpr.var(expr.name)
    if isinstance(expr, UnOp):
        return -expr_to_linexpr(expr.operand)
    if isinstance(expr, BinOp):
        if expr.op == "+":
            return expr_to_linexpr(expr.lhs) + expr_to_linexpr(expr.rhs)
        if expr.op == "-":
            return expr_to_linexpr(expr.lhs) - expr_to_linexpr(expr.rhs)
        if expr.op == "*":
            lhs, rhs = expr_to_linexpr(expr.lhs), expr_to_linexpr(expr.rhs)
            if lhs.is_constant():
                return rhs * lhs.constant
            if rhs.is_constant():
                return lhs * rhs.constant
            raise NotAffineError(f"non-affine product {expr}")
        if expr.op == "/":
            lhs, rhs = expr_to_linexpr(expr.lhs), expr_to_linexpr(expr.rhs)
            if rhs.is_constant() and rhs.constant != 0:
                return lhs / rhs.constant
            raise NotAffineError(f"non-affine division {expr}")
    raise NotAffineError(f"non-affine expression {expr}")


def is_affine(expr: Expr) -> bool:
    """True iff :func:`expr_to_linexpr` would succeed."""
    try:
        expr_to_linexpr(expr)
        return True
    except NotAffineError:
        return False


def linexpr_to_expr(lin: LinExpr) -> Expr:
    """Convert a :class:`LinExpr` with integer coefficients back to IR.

    Builds a readable sum: positive terms first, then subtractions.
    """
    if not lin.is_integral():
        raise NotAffineError(f"cannot emit fractional coefficients: {lin}")

    def term(var: str, coef: int) -> Expr:
        mag = abs(coef)
        return VarRef(var) if mag == 1 else BinOp("*", Const(mag), VarRef(var))

    pos = [(v, c) for v, c in sorted(lin.terms.items()) if c > 0]
    neg = [(v, c) for v, c in sorted(lin.terms.items()) if c < 0]
    const = int(lin.constant)

    result: Expr | None = None
    for v, c in pos:
        t = term(v, c)
        result = t if result is None else BinOp("+", result, t)
    if const > 0 or (result is None and const == 0 and not neg):
        c_node = Const(const)
        result = c_node if result is None else BinOp("+", result, c_node)
    for v, c in neg:
        t = term(v, c)
        result = UnOp("-", t) if result is None else BinOp("-", result, t)
    if const < 0:
        result = Const(const) if result is None else BinOp("-", result, Const(-const))
    assert result is not None
    return result


def cond_to_constraints(cond: Expr) -> list[Constraint]:
    """Convert an affine boolean condition to conjunctive constraints.

    Handles comparisons and conjunctions. ``!=`` and disjunctions are not
    conjunctive-affine and raise :class:`NotAffineError`.
    """
    if isinstance(cond, LogicalAnd):
        out: list[Constraint] = []
        for a in cond.args:
            out.extend(cond_to_constraints(a))
        return out
    if isinstance(cond, Cmp):
        lhs = expr_to_linexpr(cond.lhs)
        rhs = expr_to_linexpr(cond.rhs)
        if cond.op == "==":
            return [eq0(lhs - rhs)]
        if cond.op == "<=":
            return [ge0(rhs - lhs)]
        if cond.op == "<":
            return [ge0(rhs - lhs - 1)]
        if cond.op == ">=":
            return [ge0(lhs - rhs)]
        if cond.op == ">":
            return [ge0(lhs - rhs - 1)]
        raise NotAffineError(f"disjunctive comparison {cond} is not conjunctive-affine")
    raise NotAffineError(f"non-affine condition {cond}")


def is_affine_condition(cond: Expr) -> bool:
    """True iff the condition is conjunctive-affine."""
    try:
        cond_to_constraints(cond)
        return True
    except NotAffineError:
        return False


def constraint_to_cond(constraint: Constraint) -> Expr:
    """Render a constraint as a readable IR comparison.

    Negative-coefficient terms move to the other side so the output reads
    like ``i >= k+1`` rather than ``i - k - 1 >= 0``.
    """
    expr = constraint.expr
    pos_terms = {v: c for v, c in expr.terms.items() if c > 0}
    neg_terms = {v: -c for v, c in expr.terms.items() if c < 0}
    const = expr.constant
    lhs = LinExpr(pos_terms, const if const > 0 else 0)
    rhs = LinExpr(neg_terms, -const if const < 0 else 0)
    op = "==" if constraint.kind is Kind.EQ else ">="
    return Cmp(op, linexpr_to_expr(lhs), linexpr_to_expr(rhs))


def constraints_to_cond(constraints: list[Constraint]) -> Expr | None:
    """Conjunction of constraints as an IR condition (None when empty)."""
    conds = [constraint_to_cond(c) for c in constraints]
    if not conds:
        return None
    if len(conds) == 1:
        return conds[0]
    return LogicalAnd(conds)
