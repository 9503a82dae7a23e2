"""Loop generation from polyhedral domains.

Shared by tiling and unimodular transforms: given a domain over an ordered
variable tuple, emit the loop nest scanning it lexicographically. Bounds of
each level come from Fourier–Motzkin projection onto the prefix; multiple
irredundant bounds are emitted with ``max``/``min`` intrinsics (which the
executors evaluate directly — no further polyhedral analysis runs after
this stage).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import TransformError
from repro.ir.affine import linexpr_to_expr
from repro.ir.expr import Call, Const, Expr
from repro.ir.stmt import Loop, Stmt
from repro.poly.constraint import ge0
from repro.poly.fm import project_onto
from repro.poly.integer import implies
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron


def _combine(
    bounds: list[LinExpr], *, lower: bool, param_domain: Polyhedron
) -> Expr:
    """Single bound expression; ``max`` of lowers / ``min`` of uppers.

    Bounds provably dominated by another bound over the parameter domain are
    pruned first (FM projections produce many redundant combinations).
    """
    uniq: list[LinExpr] = []
    for b in bounds:
        if b not in uniq:
            uniq.append(b)
    kept: list[LinExpr] = []
    for b in uniq:
        dominated = any(
            other != b
            and implies(param_domain, ge0(other - b if lower else b - other))
            for other in uniq
        )
        if not dominated:
            kept.append(b)
    if not kept:
        # Mutually-dominating distinct bounds cannot survive LinExpr
        # canonicalisation, but guard against an empty result anyway.
        kept = uniq
    exprs = [linexpr_to_expr(b) for b in kept]
    if len(exprs) == 1:
        return exprs[0]
    return Call("max" if lower else "min", exprs)


def emit_loops(
    domain: Polyhedron,
    order: Sequence[str],
    body: tuple[Stmt, ...],
    *,
    steps: Mapping[str, int] | None = None,
) -> Stmt:
    """Loops scanning *domain* in *order* around *body*.

    ``steps`` gives non-unit strides (tile loops); strided dimensions are
    anchored at their projected global lower bound, which together with the
    companion point-loop clamps guarantees exact coverage.
    """
    steps = steps or {}
    if set(order) != set(domain.variables):
        raise TransformError(
            f"loop order {order} does not cover domain dims {domain.variables}"
        )
    from repro.trans.model import assumed_param_domain

    param_domain = assumed_param_domain(sorted(domain.parameters()))
    nest: tuple[Stmt, ...] = body
    for depth in reversed(range(len(order))):
        var = order[depth]
        proj = project_onto(domain, list(order[: depth + 1]))
        lowers, uppers = proj.bounds_on(var)
        if not lowers or not uppers:
            raise TransformError(f"dimension {var} unbounded in {proj}")
        lo = _combine(lowers, lower=True, param_domain=param_domain)
        hi = _combine(uppers, lower=False, param_domain=param_domain)
        step = steps.get(var, 1)
        nest = (Loop(var, lo, hi, nest, Const(step)),)
    assert len(nest) == 1
    return nest[0]
