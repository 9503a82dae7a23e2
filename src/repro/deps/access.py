"""The one access walk and the one same-element pair of the dependence layer.

Each :class:`Reference` is one textual read or write occurrence together
with:

- affine subscript functions over the iteration dimensions — scalars are
  rank-0 with an empty subscript tuple;
- the iteration sub-domain where the access may execute: the enclosing
  domain, refined by the bounds of inner loops (each inner loop variable
  becomes a fresh dimension) and by enclosing *affine* guards; *opaque*
  guards — LU's data-dependent pivot test — widen to may-execute and mark
  the reference inexact;
- for subscripts that mention a scalar with a declared value range (LU's
  ``m``), a fresh *fuzzy* dimension bounded by that range replaces the
  scalar, over-approximating the touched elements.

The scalars are the names the analysed code assigns as ``VarRef``
targets. A name it never assigns is loop-invariant there, so it is
treated as a parameter.

:func:`same_element` turns a source and a sink reference, the sink
renamed once by :meth:`Reference.renamed`, into the polyhedron of
instance pairs that touch one element; every dependence question (the
fused nest's Eq. 5–6 sets, a nest's self-dependences, ElimRW's
write-once check) conjoins its own order constraints to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.errors import DependenceError, NotAffineError
from repro.ir.affine import cond_to_constraints, expr_to_linexpr
from repro.ir.analysis import loop_bound_constraints
from repro.ir.expr import ArrayRef, Expr, VarRef, walk_expr
from repro.ir.stmt import Assign, If, Loop, Stmt, walk_stmts
from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.trans.model import FusedNest, StmtGroup
from repro.utils.naming import NameGenerator


@dataclass(frozen=True)
class ValueRange:
    """Declared bounds for a scalar used in subscripts (affine IR exprs over
    context variables and parameters)."""

    lower: Expr
    upper: Expr


@dataclass(frozen=True)
class Reference:
    """One read or write occurrence."""

    #: The fused group (0 outside a fused nest).
    group: int
    name: str
    is_write: bool
    #: Affine subscripts over the domain's dimensions; () for scalars.
    subscripts: tuple[LinExpr, ...]
    #: Iteration sub-domain: enclosing dims, inner-loop dims, then the
    #: fuzzy dims of this reference.
    domain: Polyhedron
    #: Fresh fuzzy dimension names introduced for this reference.
    fuzzy: tuple[str, ...]
    #: 1-based assignment number within the walked body (paper's alpha);
    #: for a read, the number of the assignment containing it (0 in guards).
    alpha: int
    #: Position of the containing top-level statement in the walked body.
    stmt_pos: int
    #: False when an opaque guard or fuzzy subscript widened this reference.
    exact: bool

    def renamed(self, mapping: Mapping[str, str]) -> "Reference":
        """This reference with its dimensions (iteration and fuzzy) and
        subscripts renamed by *mapping*: the sink of a same-element pair."""
        return replace(
            self,
            subscripts=tuple(s.rename(mapping) for s in self.subscripts),
            domain=self.domain.rename(mapping),
            fuzzy=tuple(mapping.get(f, f) for f in self.fuzzy),
        )


def assigned_scalars(stmts: Iterable[Stmt]) -> frozenset[str]:
    """The names some assignment in *stmts* targets as a scalar."""
    return frozenset(
        s.target.name
        for s in walk_stmts(stmts)
        if isinstance(s, Assign) and isinstance(s.target, VarRef)
    )


class _Context(NamedTuple):
    """Where a statement sits: its top-level position, the inner-loop
    bounds and affine guards around it, how many opaque guards (or else
    branches) widen it, and its inner loops' renamed dimensions."""

    stmt_pos: int
    constraints: tuple[Constraint, ...] = ()
    opaque: int = 0
    env: Mapping[str, str] = {}
    dims: tuple[str, ...] = ()


class _Extractor:
    """Walks statements under an enclosing *domain*.

    Without a *namer*, a nested loop is an error (a fused group body is
    straight-line code); with one, each inner loop variable becomes a
    fresh dimension bounded by its loop.
    """

    def __init__(
        self,
        domain: Polyhedron,
        scalars: frozenset[str],
        value_ranges: Mapping[str, ValueRange],
        *,
        group: int = 0,
        namer: NameGenerator | None = None,
    ):
        self.domain = domain
        self.scalars = scalars
        self.value_ranges = value_ranges
        self.group = group
        self.namer = namer
        self.refs: list[Reference] = []
        self.alpha = 0
        self._fuzz_counter = itertools.count(1)

    # -- subscripts -----------------------------------------------------------
    def _subscript(
        self,
        expr: Expr,
        env: Mapping[str, str],
        dims: tuple[str, ...],
        fuzzy: list[str],
        extra: list[Constraint],
    ) -> LinExpr:
        """Affine subscript; scalars with value ranges become fuzzy dims."""
        lin = expr_to_linexpr(expr).rename(env)  # may raise NotAffineError
        rename: dict[str, str] = {}
        for var in lin.variables():
            if var in dims:
                continue
            vr = self.value_ranges.get(var)
            if vr is None:
                if var in self.scalars:
                    raise DependenceError(
                        f"group {self.group}: subscript {expr} uses scalar "
                        f"{var!r} without a declared value range"
                    )
                continue  # loop-invariant: a parameter
            fresh = f"_fz{next(self._fuzz_counter)}"
            rename[var] = fresh
            fuzzy.append(fresh)
            fv = LinExpr.var(fresh)
            extra.append(ge0(fv - expr_to_linexpr(vr.lower)))
            extra.append(ge0(expr_to_linexpr(vr.upper) - fv))
        return lin.rename(rename) if rename else lin

    def _make_ref(
        self,
        node: ArrayRef | VarRef,
        is_write: bool,
        ctx: _Context,
    ) -> None:
        fuzzy: list[str] = []
        extra: list[Constraint] = []
        dims = self.domain.variables + ctx.dims
        if isinstance(node, ArrayRef):
            subs = tuple(
                self._subscript(e, ctx.env, dims, fuzzy, extra) for e in node.indices
            )
        else:
            subs = ()
        domain = Polyhedron(
            dims + tuple(fuzzy),
            list(self.domain.constraints) + list(ctx.constraints) + extra,
        )
        self.refs.append(
            Reference(
                group=self.group,
                name=node.name,
                is_write=is_write,
                subscripts=subs,
                domain=domain,
                fuzzy=tuple(fuzzy),
                alpha=self.alpha,
                stmt_pos=ctx.stmt_pos,
                exact=(ctx.opaque == 0 and not fuzzy),
            )
        )

    def _reads_in(self, expr: Expr, ctx: _Context) -> None:
        for node in walk_expr(expr):
            if isinstance(node, ArrayRef) or (
                isinstance(node, VarRef) and node.name in self.scalars
            ):
                self._make_ref(node, False, ctx)

    # -- statements ------------------------------------------------------------
    def walk(self, stmts: Sequence[Stmt]) -> None:
        for pos, stmt in enumerate(stmts):
            self._stmt(stmt, _Context(pos))

    def _stmt(self, stmt: Stmt, ctx: _Context) -> None:
        if isinstance(stmt, Assign):
            self.alpha += 1
            self._reads_in(stmt.value, ctx)
            target = stmt.target
            if isinstance(target, ArrayRef):
                for sub in target.indices:
                    self._reads_in(sub, ctx)
                self._make_ref(target, True, ctx)
            elif target.name in self.scalars:
                self._make_ref(target, True, ctx)
        elif isinstance(stmt, If):
            self._reads_in(stmt.cond, ctx)
            widened = ctx._replace(opaque=ctx.opaque + 1)
            try:
                cs = tuple(c.rename(ctx.env) for c in cond_to_constraints(stmt.cond))
            except NotAffineError:
                then_ctx = widened
            else:
                then_ctx = ctx._replace(constraints=ctx.constraints + cs)
            for s in stmt.then:
                self._stmt(s, then_ctx)
            for s in stmt.orelse:
                self._stmt(s, widened)
        elif isinstance(stmt, Loop):
            if self.namer is None:
                raise DependenceError(
                    f"group {self.group}: nested loop over {stmt.var} in a "
                    "fused group body is not supported by the dependence analysis"
                )
            fresh = self.namer.fresh(stmt.var)
            env = {**ctx.env, stmt.var: fresh}
            bounds = tuple(c.rename(env) for c in loop_bound_constraints(stmt))
            inner = ctx._replace(
                constraints=ctx.constraints + bounds, env=env, dims=ctx.dims + (fresh,)
            )
            for s in stmt.body:
                self._stmt(s, inner)
        else:
            raise DependenceError(f"unsupported statement {stmt!r}")


def extract_references(
    nest: FusedNest,
    group: StmtGroup,
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> list[Reference]:
    """All read/write references of *group*, in textual order.

    The scalars are those the nest's group bodies assign.
    """
    scalars = assigned_scalars(s for g in nest.groups for s in g.body)
    ex = _Extractor(group.domain, scalars, value_ranges or {}, group=group.index)
    ex.walk(group.body)
    return ex.refs


def nest_references(
    loops: Sequence[Loop],
    body: Sequence[Stmt],
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> list[Reference]:
    """All references of the statements *body* directly inside *loops*
    (outermost first), in textual order; ``stmt_pos`` indexes *body*.

    Inner loops get fresh dimensions; the scalars are those *body*
    assigns.
    """
    loop_vars = tuple(l.var for l in loops)
    domain = Polyhedron(
        loop_vars, [c for l in loops for c in loop_bound_constraints(l)]
    )
    ex = _Extractor(
        domain, assigned_scalars(body), value_ranges or {},
        namer=NameGenerator(set(loop_vars)),
    )
    ex.walk(body)
    return ex.refs


def same_element(src: Reference, dst: Reference) -> Polyhedron:
    """Pairs of instances of *src* and *dst* that touch one element.

    *dst* is the sink already renamed (:meth:`Reference.renamed`); a
    dimension the rename left alone, such as a fused nest's context loop,
    is shared. Both domains are conjoined and the subscripts equated. The
    dimensions are *src*'s iteration dims, *dst*'s, then both fuzzy
    tuples.
    """
    fuzzy = src.fuzzy + dst.fuzzy
    iteration = dict.fromkeys(
        v for v in src.domain.variables + dst.domain.variables if v not in fuzzy
    )
    constraints = list(src.domain.constraints) + list(dst.domain.constraints)
    for a, b in zip(src.subscripts, dst.subscripts):
        constraints.append(eq0(a - b))
    return Polyhedron(tuple(iteration) + fuzzy, constraints)
