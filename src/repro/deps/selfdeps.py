"""Self-dependences of one perfect nest, as polyhedra.

The final cache-tiling stage (Sec. 4) reorders a perfect nest's loops
(strip-mine + interchange, skew + permute). Its legality is governed by the
nest's own dependences: a band of loops is tileable iff it is *fully
permutable* (every dependence non-negative in every band dimension).

This module computes, for a perfect nest with (possibly guarded) body, the
dependences as polyhedra over (source iter, sink iter), one component per
carrying loop level (plus the loop-independent one). Fuzzy subscripts and
opaque guards widen the polyhedra conservatively, so a legality proof is
sound; failure to prove means "unknown" (LU's data-dependent swaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.deps.access import ValueRange
from repro.deps.graph import StmtAccess, _extract
from repro.errors import DependenceError
from repro.ir.analysis import PerfectNest, as_perfect_nest, loop_bound_constraints
from repro.ir.stmt import Stmt
from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.integer import check_feasibility
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.utils.naming import NameGenerator

#: Sink-iteration dimension suffix.
SINK = "__snk"


@dataclass(frozen=True)
class SelfDependence:
    """One dependence of a nest on itself."""

    kind: str  # flow | anti | output
    name: str
    loop_vars: tuple[str, ...]
    #: The feasible dependence components as polyhedra over
    #: (source iters, sink iters = var + SINK); one per carrying level.
    polys: tuple[Polyhedron, ...]

    def sink_minus_source(self, level: int) -> LinExpr:
        """The distance expression of loop level *level* (0-based)."""
        v = self.loop_vars[level]
        return LinExpr.var(v + SINK) - LinExpr.var(v)


def _accesses_per_stmt(
    nest: PerfectNest,
    scalars: frozenset[str],
    value_ranges: Mapping[str, ValueRange],
) -> list[list[StmtAccess]]:
    constraints: list[Constraint] = []
    for loop in nest.loops:
        constraints.extend(loop_bound_constraints(loop))
    namer = NameGenerator(set(nest.loop_vars))
    return [
        _extract(stmt, nest.loop_vars, constraints, scalars, value_ranges, namer)
        for stmt in nest.body
    ]


def self_dependences(
    stmt: Stmt,
    *,
    scalars: frozenset[str] = frozenset(),
    value_ranges: Mapping[str, ValueRange] | None = None,
    param_lo: int | Mapping[str, int] = 4,
) -> list[SelfDependence]:
    """All loop-carried and loop-independent dependences of a perfect nest."""
    nest = as_perfect_nest(stmt)
    if nest.depth == 0:
        raise DependenceError("not a loop nest")
    accesses = _accesses_per_stmt(nest, scalars, value_ranges or {})
    loop_vars = nest.loop_vars
    # Components per (kind, array), in first-seen order, without repeats.
    merged: dict[tuple[str, str], list[Polyhedron]] = {}
    flat = [
        (pos, acc) for pos, accs in enumerate(accesses) for acc in accs
    ]
    for pos1, r1 in flat:
        for pos2, r2 in flat:
            if r1.name != r2.name or not (r1.is_write or r2.is_write):
                continue
            kind = (
                "output"
                if r1.is_write and r2.is_write
                else ("flow" if r1.is_write else "anti")
            )
            polys = merged.setdefault((kind, r1.name), [])
            polys.extend(
                p
                for p in _components(r1, r2, pos1 <= pos2, loop_vars, param_lo)
                if p not in polys
            )
    return [
        SelfDependence(kind, name, loop_vars, tuple(polys))
        for (kind, name), polys in merged.items()
        if polys
    ]


def _pair_base(r1: StmtAccess, r2: StmtAccess, loop_vars) -> Polyhedron:
    ren = {v: v + SINK for v in r2.domain.variables}
    d2 = r2.domain.rename(ren)
    variables = tuple(dict.fromkeys(r1.domain.variables + d2.variables))
    constraints = list(r1.domain.constraints) + list(d2.constraints)
    for s1, s2 in zip(r1.subscripts, tuple(s.rename(ren) for s in r2.subscripts)):
        constraints.append(eq0(s1 - s2))
    return Polyhedron(variables, constraints)


def _components(
    r1: StmtAccess,
    r2: StmtAccess,
    src_textually_first: bool,
    loop_vars: tuple[str, ...],
    param_lo,
) -> tuple[Polyhedron, ...]:
    """The feasible dependence components, one per carrying level.

    The source must execute before the sink: source iter lex-< sink iter,
    or equal iterations with the source textually first (level 0).
    """
    base = _pair_base(r1, r2, loop_vars)
    n = len(loop_vars)
    components: list[Polyhedron] = []
    levels = list(range(1, n + 1)) + ([0] if src_textually_first else [])
    for level in levels:
        constraints: list[Constraint] = []
        for depth, v in enumerate(loop_vars, start=1):
            diff = LinExpr.var(v + SINK) - LinExpr.var(v)
            if level == 0 or depth < level:
                constraints.append(eq0(diff))
            elif depth == level:
                constraints.append(ge0(diff - 1))
        poly = base.with_constraints(constraints)
        if check_feasibility(poly, param_lo=param_lo).feasible:
            components.append(poly)
    return tuple(components)
