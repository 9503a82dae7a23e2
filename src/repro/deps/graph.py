"""Statement-level dependence graphs within one loop.

Used by loop distribution (the inverse of fusion — the paper applies it to
expose perfect nests, e.g. QR's imperfect ``X`` nest, and names its
generalisation as future work): the statements directly inside a loop are
the nodes; a directed edge ``a -> b`` records a dependence whose source
instance executes before its sink instance. Distribution must keep every
strongly connected component together and order the components
topologically.

Statements may themselves contain loops (that is the point — distribution
splits imperfect nests); each statement's accesses are extracted with its
inner loop bounds as extra polyhedral dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import networkx as nx

from repro.deps.access import ValueRange
from repro.errors import DependenceError, NotAffineError
from repro.ir.affine import cond_to_constraints, expr_to_linexpr
from repro.ir.analysis import loop_bound_constraints
from repro.ir.expr import ArrayRef, Expr, VarRef, walk_expr
from repro.ir.stmt import Assign, If, Loop, Stmt
from repro.poly import memo
from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.integer import check_feasibility
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.utils.naming import NameGenerator


@dataclass(frozen=True)
class StmtAccess:
    """One access of one statement, with its full iteration domain."""

    name: str
    is_write: bool
    subscripts: tuple[LinExpr, ...]
    #: dims: outer loop vars + this statement's (renamed) inner loop vars.
    domain: Polyhedron
    exact: bool


def _extract(
    stmt: Stmt,
    outer_vars: tuple[str, ...],
    base_constraints: list[Constraint],
    scalars: frozenset[str],
    value_ranges: Mapping[str, ValueRange],
    namer: NameGenerator,
) -> list[StmtAccess]:
    """All accesses of *stmt* (recursing through inner loops and guards)."""
    out: list[StmtAccess] = []
    fuzz_counter = [0]

    def subscript(
        expr: Expr, dims: list[str], constraints: list[Constraint], exact: list[bool]
    ) -> LinExpr:
        lin = expr_to_linexpr(expr)
        rename: dict[str, str] = {}
        for var in lin.variables():
            if var in dims or var in outer_vars:
                continue
            vr = value_ranges.get(var)
            if vr is None:
                if var in scalars:
                    raise DependenceError(
                        f"subscript {expr} uses scalar {var!r} without a value range"
                    )
                continue  # a parameter
            fuzz_counter[0] += 1
            fresh = f"_gz{fuzz_counter[0]}"
            rename[var] = fresh
            dims.append(fresh)
            fv = LinExpr.var(fresh)
            constraints.append(ge0(fv - expr_to_linexpr(vr.lower)))
            constraints.append(ge0(expr_to_linexpr(vr.upper) - fv))
            exact[0] = False
        return lin.rename(rename) if rename else lin

    def emit(
        node: ArrayRef | VarRef,
        is_write: bool,
        dims: list[str],
        constraints: list[Constraint],
        exact_flag: bool,
    ) -> None:
        local_dims = list(dims)
        local_constraints = list(constraints)
        exact = [exact_flag]
        if isinstance(node, ArrayRef):
            subs = tuple(
                subscript(e, local_dims, local_constraints, exact)
                for e in node.indices
            )
        else:
            subs = ()
        out.append(
            StmtAccess(
                name=node.name if isinstance(node, (ArrayRef, VarRef)) else "?",
                is_write=is_write,
                subscripts=subs,
                domain=Polyhedron(tuple(outer_vars) + tuple(local_dims), local_constraints),
                exact=exact[0],
            )
        )

    def reads_in(expr: Expr, dims, constraints, exact_flag) -> None:
        for node in walk_expr(expr):
            if isinstance(node, ArrayRef):
                emit(node, False, dims, constraints, exact_flag)
            elif isinstance(node, VarRef) and node.name in scalars:
                emit(node, False, dims, constraints, exact_flag)

    def rec(s: Stmt, dims: list[str], constraints: list[Constraint], exact: bool) -> None:
        if isinstance(s, Assign):
            reads_in(s.value, dims, constraints, exact)
            target = s.target
            if isinstance(target, ArrayRef):
                for sub in target.indices:
                    reads_in(sub, dims, constraints, exact)
                emit(target, True, dims, constraints, exact)
            elif target.name in scalars:
                emit(target, True, dims, constraints, exact)
        elif isinstance(s, If):
            reads_in(s.cond, dims, constraints, exact)
            try:
                extra = cond_to_constraints(s.cond)
                for t in s.then:
                    rec(t, dims, constraints + extra, exact)
                for t in s.orelse:
                    rec(t, dims, constraints, False)
            except NotAffineError:
                for t in s.then:
                    rec(t, dims, constraints, False)
                for t in s.orelse:
                    rec(t, dims, constraints, False)
        elif isinstance(s, Loop):
            fresh = namer.fresh(s.var)
            bounds = [
                c.rename({s.var: fresh}) for c in loop_bound_constraints(s)
            ]
            inner_dims = dims + [fresh]
            # rename the loop var inside the body subscripts by renaming at
            # the LinExpr level: walk with a substitution of the var name.
            from repro.ir.expr import map_expr
            from repro.ir.stmt import map_stmt_exprs

            def rn(expr: Expr) -> Expr:
                def fn(node: Expr) -> Expr:
                    if isinstance(node, VarRef) and node.name == s.var:
                        return VarRef(fresh)
                    return node

                return map_expr(expr, fn)

            for t in s.body:
                rec(map_stmt_exprs(t, rn), inner_dims, constraints + bounds, exact)
        else:
            raise DependenceError(f"unsupported statement {s!r}")

    rec(stmt, [], list(base_constraints), True)
    return out


def dependence_graph(
    loop: Loop,
    *,
    scalars: frozenset[str] = frozenset(),
    value_ranges: Mapping[str, ValueRange] | None = None,
    param_lo: int | Mapping[str, int] = 4,
) -> nx.DiGraph:
    """Dependence graph of the statements directly inside *loop*.

    Edge ``a -> b`` means some instance of statement ``a`` must execute
    before some conflicting instance of statement ``b`` (flow, anti or
    output — all are ordering constraints for distribution).

    The edge set is memoised on the loop's serialized content, so every
    variant of a kernel reuses one analysis per distinct loop nest. A fresh
    ``DiGraph`` is returned each call; callers may mutate it freely.
    """
    value_ranges = value_ranges or {}
    from repro.ir.serialize import expr_to_dict, stmt_to_dict

    key_doc = {
        "loop": stmt_to_dict(loop),
        "scalars": sorted(scalars),
        "ranges": {
            name: [expr_to_dict(vr.lower), expr_to_dict(vr.upper)]
            for name, vr in sorted(value_ranges.items())
        },
    }
    payload = memo.memoize(
        "depgraph",
        (memo.stable_key(key_doc), memo.env_key(param_lo)),
        lambda: _graph_payload(loop, scalars, value_ranges, param_lo),
    )
    graph = nx.DiGraph()
    graph.add_nodes_from(range(payload["n"]))
    graph.add_edges_from((a, b) for a, b in payload["e"])
    return graph


def _graph_payload(
    loop: Loop,
    scalars: frozenset[str],
    value_ranges: Mapping[str, ValueRange],
    param_lo: int | Mapping[str, int],
) -> dict:
    """Node count and edge list of the dependence graph."""
    outer = (loop.var,)
    base = loop_bound_constraints(loop)
    namer = NameGenerator({loop.var})
    accesses: list[list[StmtAccess]] = []
    for stmt in loop.body:
        accesses.append(_extract(stmt, outer, base, scalars, value_ranges, namer))

    edges: list[list[int]] = []
    for a in range(len(loop.body)):
        for b in range(len(loop.body)):
            if a == b:
                continue
            if _depends(accesses[a], accesses[b], loop.var, a < b, param_lo):
                edges.append([a, b])
    return {"n": len(loop.body), "e": edges}


def _depends(
    src_acc: list[StmtAccess],
    dst_acc: list[StmtAccess],
    loop_var: str,
    src_textually_first: bool,
    param_lo,
) -> bool:
    """Is there a dependence with source in ``src_acc`` executing first?"""
    for r1 in src_acc:
        for r2 in dst_acc:
            if r1.name != r2.name or not (r1.is_write or r2.is_write):
                continue
            if _conflict(r1, r2, loop_var, strict=not src_textually_first, param_lo=param_lo):
                return True
    return False


def _conflict(r1: StmtAccess, r2: StmtAccess, loop_var: str, *, strict: bool, param_lo) -> bool:
    suffix = "_r2"
    ren = {v: v + suffix for v in r2.domain.variables}
    d2 = r2.domain.rename(ren)
    variables = tuple(dict.fromkeys(r1.domain.variables + d2.variables))
    constraints = list(r1.domain.constraints) + list(d2.constraints)
    for s1, s2 in zip(r1.subscripts, tuple(s.rename(ren) for s in r2.subscripts)):
        constraints.append(eq0(s1 - s2))
    v1 = LinExpr.var(loop_var)
    v2 = LinExpr.var(loop_var + suffix)
    # Source instance at v1 executes before sink at v2: v1 < v2, or v1 == v2
    # when the source is textually first (strict=False).
    order = ge0(v2 - v1 - 1) if strict else ge0(v2 - v1)
    poly = Polyhedron(variables, constraints + [order])
    return check_feasibility(poly, param_lo=param_lo).feasible
