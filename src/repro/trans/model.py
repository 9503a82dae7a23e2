"""Data model of a fused program (the paper's Eq. 4 plus bookkeeping).

A :class:`FusedNest` is one perfect nest ``do I_1 ... do I_n`` (under an
optional *context* of outer loops shared by all original nests) whose body
is a sequence of :class:`StmtGroup` — one per original nest ``L_k``,
rewritten into fused coordinates and guarded by membership in ``F_k(IS_k)``.

The model carries the *execution relation* of each group: after
``ElimWW_WR`` collapses some dimensions of a group (full-extent tiling),
every instance of that group executes at the collapsed dimensions' origin.
Dependence rounds therefore compare **execution coordinates**::

    exec_k(I)_i = origin_i      if i collapsed for group k
                = I_i           otherwise

which stay affine, so each round remains a polyhedral problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.errors import TransformError
from repro.ir.affine import constraints_to_cond, linexpr_to_expr
from repro.ir.expr import Expr
from repro.ir.program import Program
from repro.ir.stmt import If, Loop, Stmt
from repro.poly.constraint import Constraint
from repro.poly.integer import PARAM_LO
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

#: Suffix used to build "primed" (sink) copies of fused variables in
#: dependence polyhedra.
PRIME = "__p"

def assumed_param_domain(params) -> "Polyhedron":
    """``{ p >= PARAM_LO }`` over the given parameter names: the domain
    over which code generation proves one loop bound dominates another
    (degenerate tiny sizes would only change which redundant bound is
    emitted, never correctness of the guarded code)."""
    from repro.poly.constraint import ge0

    names = tuple(params)
    return Polyhedron(names, [ge0(LinExpr.var(p) - PARAM_LO) for p in names])


def primed(name: str) -> str:
    """The primed twin of a fused variable."""
    return name + PRIME


@dataclass(frozen=True)
class StmtGroup:
    """One original nest embedded in the fused space.

    ``domain`` is over ``context_vars + fused_vars`` and describes
    ``F_k(IS_k)``; ``guard`` lists only the constraints beyond the fused
    space bounds (what must be tested at run time). ``collapsed`` maps each
    collapsed fused variable to its origin expression (affine over context
    variables and parameters).
    """

    index: int
    body: tuple[Stmt, ...]
    domain: Polyhedron
    guard: tuple[Constraint, ...]
    collapsed: Mapping[str, LinExpr] = field(default_factory=dict)
    #: Extra leading statements inserted by ElimRW (copy operations),
    #: executed before `body` under the same guard-free position.
    prologue: tuple[Stmt, ...] = ()

    def exec_coordinate(self, var: str) -> LinExpr:
        """Execution coordinate of fused variable *var* for this group."""
        if var in self.collapsed:
            return self.collapsed[var]
        return LinExpr.var(var)

    def with_collapsed(self, extra: Mapping[str, LinExpr]) -> "StmtGroup":
        """Collapse additional dimensions (ElimWW_WR tiling step)."""
        merged = dict(self.collapsed)
        for var, origin in extra.items():
            if var in merged and merged[var] != origin:
                raise TransformError(
                    f"group {self.index}: conflicting origins for {var}"
                )
            merged[var] = origin
        return replace(self, collapsed=merged)

    def with_body(self, body: tuple[Stmt, ...]) -> "StmtGroup":
        """Replace the statement list."""
        return replace(self, body=body)

    def with_prologue(self, prologue: tuple[Stmt, ...]) -> "StmtGroup":
        """Replace the ElimRW prologue."""
        return replace(self, prologue=prologue)


@dataclass(frozen=True)
class FusedNest:
    """The fused program: context loops around one perfect fused nest."""

    #: Declarations and parameters come from here; body is ignored.
    base: Program
    #: Outer loops shared by every group (e.g. LU's ``k``), outermost first.
    context: tuple[Loop, ...]
    #: Fused loop spec: (var, lower, upper) with IR bound expressions.
    fused_loops: tuple[tuple[str, Expr, Expr], ...]
    groups: tuple[StmtGroup, ...]
    #: Statements to run before the context loops (ElimRW pre-copies).
    preamble: tuple[Stmt, ...] = ()
    #: Statements kept after the fused nest (e.g. LU's peeled last k).
    epilogue: tuple[Stmt, ...] = ()

    @property
    def context_vars(self) -> tuple[str, ...]:
        """Context loop variables, outermost first."""
        return tuple(l.var for l in self.context)

    @property
    def fused_vars(self) -> tuple[str, ...]:
        """Fused loop variables, outermost first."""
        return tuple(v for v, _, _ in self.fused_loops)

    def space(self) -> Polyhedron:
        """Iteration space over context + fused variables."""
        from repro.ir.analysis import loop_bound_constraints
        from repro.ir.affine import expr_to_linexpr
        from repro.poly.constraint import ge0

        constraints: list[Constraint] = []
        for loop in self.context:
            constraints.extend(loop_bound_constraints(loop))
        for var, lo, hi in self.fused_loops:
            v = LinExpr.var(var)
            constraints.extend(
                [ge0(v - expr_to_linexpr(lo)), ge0(expr_to_linexpr(hi) - v)]
            )
        return Polyhedron(self.context_vars + self.fused_vars, constraints)

    def fused_lower_bound(self, var: str) -> LinExpr:
        """Origin O_v of fused dimension *var* (the space's lower bound)."""
        from repro.ir.affine import expr_to_linexpr

        for v, lo, _hi in self.fused_loops:
            if v == var:
                return expr_to_linexpr(lo)
        raise TransformError(f"{var} is not a fused variable")

    def with_groups(self, groups: tuple[StmtGroup, ...]) -> "FusedNest":
        """Replace the group tuple."""
        return replace(self, groups=groups)

    def with_preamble(self, preamble: tuple[Stmt, ...]) -> "FusedNest":
        """Replace the preamble."""
        return replace(self, preamble=preamble)

    def with_base(self, base: Program) -> "FusedNest":
        """Replace the declaration-carrying base program."""
        return replace(self, base=base)

    # -- code generation ------------------------------------------------------
    def to_program(self, name: str | None = None) -> Program:
        """Emit the fused nest as an executable IR program."""
        body = self._emit_fused_body()
        stmt: tuple[Stmt, ...] = body
        for var, lo, hi in reversed(self.fused_loops):
            stmt = (Loop(var, lo, hi, stmt),)
        for ctx in reversed(self.context):
            stmt = (Loop(ctx.var, ctx.lower, ctx.upper, stmt, ctx.step),)
        full = self.preamble + stmt + self.epilogue
        prog = self.base.with_body(full)
        return prog.with_name(name or f"{self.base.name}_fused")

    def _emit_fused_body(self) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for group in self.groups:
            stmts = group.prologue + self._emit_group(group)
            out.extend(stmts)
        return tuple(out)

    def _emit_group(self, group: StmtGroup) -> tuple[Stmt, ...]:
        if not group.collapsed:
            return _guarded(group.guard, group.body)
        return self._emit_collapsed(group)

    def _emit_collapsed(self, group: StmtGroup) -> tuple[Stmt, ...]:
        """Tiled-code emission (paper Fig. 2, lines 27–33) for full-extent
        tiles: at the tile origin, sweep loops enumerate every point of
        ``F_k(IS_k)`` along the collapsed dimensions."""
        from repro.ir.affine import constraint_to_cond
        from repro.ir.builder import ceq
        from repro.poly.fm import project_onto
        from repro.poly.integer import implies
        from repro.utils.naming import NameGenerator

        namer = NameGenerator(self.base.all_names() | {primed(v) for v in self.fused_vars})
        collapsed_vars = [v for v in self.fused_vars if v in group.collapsed]
        sweep_names = {v: namer.fresh(f"{v}s") for v in collapsed_vars}

        # Body with collapsed fused vars renamed to sweep variables.
        from repro.ir.expr import VarRef, map_expr
        from repro.ir.stmt import map_stmt_exprs

        def rename(expr):
            def fn(node):
                if isinstance(node, VarRef) and node.name in sweep_names:
                    return VarRef(sweep_names[node.name])
                return node

            return map_expr(expr, fn)

        body: tuple[Stmt, ...] = tuple(map_stmt_exprs(s, rename) for s in group.body)

        # Sweep loop bounds, innermost outward: bounds of collapsed dim v in
        # the group's domain, given context and earlier collapsed dims.
        keep_outer = list(self.context_vars) + [
            v for v in self.fused_vars if v not in group.collapsed
        ]
        for v in reversed(collapsed_vars):
            prefix = [
                u
                for u in self.fused_vars
                if u in group.collapsed
                and self.fused_vars.index(u) <= self.fused_vars.index(v)
            ]
            proj = project_onto(group.domain, keep_outer + prefix)
            lowers, uppers = proj.bounds_on(v)
            if not lowers or not uppers:
                raise TransformError(
                    f"group {group.index}: cannot bound sweep dimension {v}"
                )
            from repro.trans.loopgen import _combine

            pd = assumed_param_domain(self.base.params)
            rename_map = {u: sweep_names[u] for u in prefix if u != v}
            lo = _combine(
                [b.rename(rename_map) for b in lowers], lower=True, param_domain=pd
            )
            hi = _combine(
                [b.rename(rename_map) for b in uppers], lower=False, param_domain=pd
            )
            body = (Loop(sweep_names[v], lo, hi, body),)

        # Origin guard: collapsed dims pinned at their origin; plus the
        # group's membership constraints on the remaining dims — obtained by
        # projecting the domain onto the uncollapsed dims and dropping
        # whatever the fused space already guarantees.
        conds: list[Expr] = []
        for v in collapsed_vars:
            conds.append(ceq(VarRef(v), linexpr_to_expr(group.collapsed[v])))
        space = self.space()
        membership = project_onto(group.domain, keep_outer)
        for c in membership.constraints:
            if not implies(space, c):
                conds.append(constraint_to_cond(c))
        from repro.ir.builder import and_

        if conds:
            return (If(and_(*conds), body),)
        return body


def _guarded(guard: tuple[Constraint, ...], body: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
    cond = constraints_to_cond(list(guard))
    if cond is None:
        return body
    return (If(cond, body),)
