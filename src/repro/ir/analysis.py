"""Structural analyses over IR: perfect nests and iteration domains.

These are the building blocks the paper's algorithm assumes: recognising
perfect loop nests (Eq. 1) and turning loop bounds into polyhedral
iteration spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import IRError
from repro.ir.affine import expr_to_linexpr
from repro.ir.expr import Expr
from repro.ir.stmt import Assign, Loop, Stmt, walk_stmts
from repro.poly.constraint import Constraint, ge0
from repro.poly.polyhedron import Polyhedron


@dataclass(frozen=True)
class PerfectNest:
    """A perfect loop nest: loops outermost-in, plus the innermost body.

    A bare statement (no loops) is a depth-0 nest; the paper's embedding
    machinery treats straight-line code between loops this way after code
    sinking.
    """

    loops: tuple[Loop, ...]
    body: tuple[Stmt, ...]

    @property
    def depth(self) -> int:
        """Number of loops."""
        return len(self.loops)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        """Loop variable names, outermost first."""
        return tuple(loop.var for loop in self.loops)


def as_perfect_nest(stmt: Stmt) -> PerfectNest:
    """View *stmt* as a perfect nest, descending while the body is a single
    loop. A non-loop statement yields a depth-0 nest."""
    loops: list[Loop] = []
    current: tuple[Stmt, ...] = (stmt,)
    while len(current) == 1 and isinstance(current[0], Loop):
        inner = current[0]
        if not inner.has_unit_step:
            break
        loops.append(inner)
        current = inner.body
    return PerfectNest(tuple(loops), current)


def is_perfect_loop_nest(stmt: Stmt) -> bool:
    """True iff *stmt* is a loop whose nesting is perfect all the way in
    (each level is a single loop until a loop-free body)."""
    nest = as_perfect_nest(stmt)
    if nest.depth == 0:
        return False
    return not any(isinstance(s, Loop) for s in walk_stmts(nest.body))


def _bound_parts(expr: Expr, *, lower: bool) -> list:
    """Affine pieces of a loop bound: ``max(..)`` in a lower bound and
    ``min(..)`` in an upper bound decompose into several affine bounds."""
    from repro.ir.expr import Call

    if isinstance(expr, Call) and expr.func == ("max" if lower else "min"):
        out = []
        for a in expr.args:
            out.extend(_bound_parts(a, lower=lower))
        return out
    return [expr_to_linexpr(expr)]


def loop_bound_constraints(loop: Loop) -> list[Constraint]:
    """``lower <= var <= upper`` as polyhedral constraints (unit step only).

    Bounds built from ``max`` (lower) / ``min`` (upper) intrinsics — as the
    tiling and unimodular code generators emit — decompose exactly.
    """
    if not loop.has_unit_step:
        raise IRError(f"loop over {loop.var} has non-unit step; not a domain loop")
    var = expr_to_linexpr_var(loop.var)
    out = [ge0(var - lo) for lo in _bound_parts(loop.lower, lower=True)]
    out.extend(ge0(hi - var) for hi in _bound_parts(loop.upper, lower=False))
    return out


def expr_to_linexpr_var(name: str):
    """LinExpr for a single variable (tiny convenience)."""
    from repro.poly.linexpr import LinExpr

    return LinExpr.var(name)


def iteration_domain(loops: Iterable[Loop]) -> Polyhedron:
    """Polyhedron over the loop variables of *loops* (outermost first)."""
    loops = list(loops)
    constraints: list[Constraint] = []
    for loop in loops:
        constraints.extend(loop_bound_constraints(loop))
    return Polyhedron(tuple(l.var for l in loops), constraints)


def written_names(stmts: Iterable[Stmt]) -> frozenset[str]:
    """Names (arrays and scalars) assigned anywhere in the forest."""
    from repro.ir.expr import ArrayRef, VarRef

    names: set[str] = set()
    for s in walk_stmts(stmts):
        if isinstance(s, Assign):
            target = s.target
            if isinstance(target, ArrayRef):
                names.add(target.name)
            elif isinstance(target, VarRef):
                names.add(target.name)
    return frozenset(names)
