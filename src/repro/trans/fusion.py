"""Fusing sibling perfect nests into one perfect nest (paper Eq. 2–4).

Given a program whose body (under ``context_depth`` outer loops) is a
sequence of items — perfect nests or straight-line statements — and an
embedding for each item, :func:`fuse_siblings` builds the
:class:`~repro.trans.model.FusedNest`: one fused loop nest whose body
executes each item's statements under a membership guard.

An embedding specifies the injective map ``F_k``:

- ``var_map`` renames each original loop variable to a fused variable;
- ``placement`` pins every remaining fused variable to an affine expression
  of the original loop variables / context / parameters (typically a
  boundary of the fused space — the paper notes the exact placement is not
  critical).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import TransformError
from repro.ir.affine import expr_to_linexpr
from repro.ir.analysis import as_perfect_nest, loop_bound_constraints
from repro.ir.expr import Expr, VarRef, map_expr
from repro.ir.program import Program
from repro.ir.stmt import Loop, Stmt, map_stmt_exprs
from repro.poly.constraint import Constraint, eq0
from repro.poly.integer import implies
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.trans.model import FusedNest, StmtGroup
from repro.trans.sinking import sink_guards


@dataclass(frozen=True)
class NestEmbedding:
    """The map ``F_k`` for one original nest."""

    #: original loop variable -> fused variable (injective).
    var_map: Mapping[str, str] = field(default_factory=dict)
    #: fused variable -> placement expression (affine IR expression over
    #: original loop variables, context variables and parameters).
    placement: Mapping[str, Expr] = field(default_factory=dict)


def fuse_siblings(
    program: Program,
    fused_loops: Sequence[tuple[str, Expr, Expr]],
    embeddings: Sequence[NestEmbedding],
    *,
    context_depth: int = 0,
    epilogue_from: int | None = None,
) -> FusedNest:
    """Fuse the items in the innermost context body into one perfect nest.

    ``program.body[0]`` must be the context loop chain when
    ``context_depth > 0``; the items to fuse are the innermost context
    body's statements (or the top-level body when depth is 0).
    ``epilogue_from`` optionally splits trailing top-level statements off as
    an epilogue kept after the fused nest (e.g. LU's peeled last iteration).
    """
    top = list(program.body)
    epilogue: tuple[Stmt, ...] = ()
    if epilogue_from is not None:
        epilogue = tuple(top[epilogue_from:])
        top = top[:epilogue_from]

    context: list[Loop] = []
    items: list[Stmt] = top
    for _ in range(context_depth):
        if len(items) != 1 or not isinstance(items[0], Loop):
            raise TransformError(
                f"{program.name}: expected a single context loop at depth "
                f"{len(context)}"
            )
        context.append(items[0])
        items = list(items[0].body)

    if len(items) != len(embeddings):
        raise TransformError(
            f"{program.name}: {len(items)} items but {len(embeddings)} embeddings"
        )

    fused_loops = tuple((v, lo, hi) for v, lo, hi in fused_loops)
    fused_vars = tuple(v for v, _, _ in fused_loops)
    ctx_vars = tuple(l.var for l in context)
    nest = FusedNest(
        base=program,
        context=tuple(
            Loop(l.var, l.lower, l.upper, (_placeholder(),), l.step) for l in context
        ),
        fused_loops=fused_loops,
        groups=(),
        epilogue=epilogue,
    )
    space = nest.space()

    ctx_constraints: list[Constraint] = []
    for loop in context:
        ctx_constraints.extend(loop_bound_constraints(loop))

    groups: list[StmtGroup] = []
    for k, (item, emb) in enumerate(zip(items, embeddings), start=1):
        groups.append(
            _embed_item(
                k, item, emb, ctx_vars, fused_vars, ctx_constraints, space, program
            )
        )
    return nest.with_groups(tuple(groups))


def _placeholder() -> Stmt:
    from repro.ir.builder import assign, val

    return assign("_ph", val(0))


def _embed_item(
    k: int,
    item: Stmt,
    emb: NestEmbedding,
    ctx_vars: tuple[str, ...],
    fused_vars: tuple[str, ...],
    ctx_constraints: list[Constraint],
    space: Polyhedron,
    program: Program,
) -> StmtGroup:
    item = sink_guards(item)
    nest = as_perfect_nest(item)
    orig_vars = list(nest.loop_vars)

    # -- validate the embedding -------------------------------------------
    mapped = {emb.var_map.get(v) for v in orig_vars}
    if None in mapped:
        missing = [v for v in orig_vars if v not in emb.var_map]
        raise TransformError(f"nest {k}: loop vars {missing} not mapped")
    if len(mapped) != len(orig_vars):
        raise TransformError(f"nest {k}: var_map is not injective")
    unknown = mapped - set(fused_vars)
    if unknown:
        raise TransformError(f"nest {k}: mapped to unknown fused vars {unknown}")
    unplaced = [v for v in fused_vars if v not in mapped and v not in emb.placement]
    if unplaced:
        raise TransformError(f"nest {k}: fused vars {unplaced} neither mapped nor placed")

    rename = dict(emb.var_map)

    # -- domain F_k(IS_k) -----------------------------------------------------
    constraints: list[Constraint] = list(ctx_constraints)
    for loop in nest.loops:
        for c in loop_bound_constraints(loop):
            constraints.append(c.rename(rename))
    for fv, expr in emb.placement.items():
        if fv in mapped:
            raise TransformError(f"nest {k}: fused var {fv} both mapped and placed")
        lin = expr_to_linexpr(expr).rename(rename)
        constraints.append(eq0(LinExpr.var(fv) - lin))
    domain = Polyhedron(ctx_vars + fused_vars, constraints)

    # F_k(IS_k) must lie inside the fused space (under the standing
    # parameter assumption — a boundary placement like i = 1 needs N >= 1).
    from repro.trans.model import assumed_param_domain

    augmented = domain.with_constraints(
        assumed_param_domain(program.params).constraints
    )
    for c in space.constraints:
        if not implies(augmented, c):
            raise TransformError(
                f"nest {k}: embedded domain violates fused bound {c}"
            )

    # -- rewrite the body into fused coordinates -----------------------------
    def rn(expr: Expr) -> Expr:
        def fn(node: Expr) -> Expr:
            if isinstance(node, VarRef) and node.name in rename:
                return VarRef(rename[node.name])
            return node

        return map_expr(expr, fn)

    body = tuple(map_stmt_exprs(s, rn) for s in nest.body)

    # -- run-time guard: domain constraints the space does not already give
    guard = tuple(c for c in domain.constraints if not implies(space, c))
    return StmtGroup(index=k, body=body, domain=domain, guard=guard)

