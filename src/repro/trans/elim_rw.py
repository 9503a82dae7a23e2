"""ElimRW: eliminating fusion-preventing anti-dependences by array copying
(paper Fig. 2, lines 36–48, plus the line-6 guard simplification).

For each variable ``A`` and each group ``k`` whose reads are violated by
later groups' writes:

1. the violating *write instances* are computed (the paper's
   ``min_< RW̄_A(k)``: with the verified write-once-per-context property,
   every violating write is the earliest overwrite of its element);
2. a copy array ``H`` mirroring ``A`` is introduced and, guarded by
   membership in the violating-write set, ``H(f') = A(f')`` is inserted at
   the beginning of group ``k+1``'s body — just before anything could
   clobber the element;
3. every violated read of ``A`` in group ``k`` is redirected:
   ``A(f)`` becomes ``merge(H(f), A(f), C_R)`` where ``C_R`` holds at
   iterations whose element has already been overwritten;
4. *guard simplification*: when the ``C_R``-false iterations only touch
   elements never written anywhere, those elements are pre-copied into
   ``H`` before the nest and the read uses ``H`` unconditionally — this
   reproduces the paper's boundary copies for Jacobi (Fig. 4d).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.deps.access import Reference, ValueRange, same_element
from repro.deps.fusionpreventing import (
    DependenceSession,
    Violation,
    violated_dependences,
)
from repro.errors import TransformError
from repro.ir.affine import constraint_to_cond, linexpr_to_expr
from repro.ir.expr import ArrayRef, Expr, Select, VarRef, map_expr
from repro.ir.program import ArrayDecl, ScalarDecl
from repro.ir.stmt import Assign, If, Loop, Stmt
from repro.poly.constraint import Constraint, Kind, eq0, ge0
from repro.poly.fm import project_onto
from repro.poly.integer import implies, integer_feasible
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.trans.loopgen import emit_loops
from repro.trans.model import FusedNest, primed
from repro.utils.naming import NameGenerator


@dataclass(frozen=True)
class CopyInsertion:
    """Audit record of one ElimRW action."""

    array: str
    src_group: int
    copy_array: str
    guarded_copies: int
    precopied_reads: int
    redirected_reads: int


@dataclass(frozen=True)
class ElimRWResult:
    """Transformed nest plus audit records."""

    nest: FusedNest
    insertions: tuple[CopyInsertion, ...]


def eliminate_rw(
    nest: FusedNest,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
    simplify: bool = True,
    widen_copies: bool = True,
    session: DependenceSession | None = None,
) -> ElimRWResult:
    """Fix every fusion-preventing anti-dependence by copying.

    ``widen_copies`` copies at every instance of a violating write reference
    instead of only the exactly-violating instances (simpler guards, same
    semantics given the write-once check). The anti set and the
    pre-copy's writes come through *session* (FixDeps's, else one of its
    own).
    """
    if session is None:
        session = DependenceSession()
    violations = violated_dependences(
        nest, ("anti",), value_ranges=value_ranges, session=session
    )
    if not violations:
        return ElimRWResult(nest, ())

    # Group violations by (variable, source group).
    by_pair: dict[tuple[str, int], list[Violation]] = {}
    for v in violations:
        by_pair.setdefault((v.name, v.src.group), []).append(v)

    # Only one copy array per variable when a single source group needs one
    # (Theorems 3–4 merging).
    groups_per_array: dict[str, set[int]] = {}
    for (name, k), _ in by_pair.items():
        groups_per_array.setdefault(name, set()).add(k)

    current = nest
    insertions: list[CopyInsertion] = []
    namer = NameGenerator(nest.base.all_names())
    for (name, k), vios in sorted(by_pair.items()):
        copy_name = (
            namer.fresh(f"H_{name}")
            if len(groups_per_array[name]) == 1
            else namer.fresh(f"H_{name}_{k}")
        )
        current, record = _fix_pair(
            current, name, k, vios, copy_name, simplify, namer,
            value_ranges, widen_copies, session,
        )
        insertions.append(record)
    return ElimRWResult(current, tuple(insertions))


# ---------------------------------------------------------------------------


def _fix_pair(
    nest: FusedNest,
    name: str,
    k: int,
    vios: list[Violation],
    copy_name: str,
    simplify: bool,
    namer: NameGenerator,
    value_ranges: Mapping[str, ValueRange] | None,
    widen: bool,
    session: DependenceSession,
) -> tuple[FusedNest, CopyInsertion]:
    for v in vios:
        if v.dst.fuzzy or v.src.fuzzy:
            raise TransformError(
                f"{v.describe()}: copying with fuzzy subscripts is not supported"
            )
    _check_write_once(nest, name, k, vios)

    space = nest.space()
    is_scalar = nest.base.has_scalar(name)

    # ---- 1. violating-write instance sets, per write reference ------------
    # With the write-once-per-context property verified, it is safe (and
    # matches the paper's line-6 guard simplification, cf. Fig. 4d) to widen
    # each copy to the write reference's full domain: copying an element the
    # violated reads never need is harmless, and the guards collapse to the
    # write's own membership test.
    unprime = {primed(v): v for v in nest.fused_vars}
    write_sets: dict[tuple[int, int, int], tuple[Reference, list[Polyhedron]]] = {}
    for v in vios:
        key = (v.dst.group, v.dst.stmt_pos, v.dst.alpha)
        if widen:
            proj = v.dst.domain
        else:
            keep = list(nest.context_vars) + [primed(u) for u in nest.fused_vars]
            proj = project_onto(v.poly, keep).rename(unprime)
        ref, polys = write_sets.setdefault(key, (v.dst, []))
        if proj not in polys:
            polys.append(proj)

    # ---- 2. guarded copy statements at the head of group k+1 ---------------
    copy_stmts: list[Stmt] = []
    for _key, (wref, polys) in sorted(write_sets.items()):
        target, source = _copy_refs(copy_name, name, wref, is_scalar)
        for poly in polys:
            guard = [c for c in poly.constraints if not implies(space, c)]
            copy = Assign(target, source)
            if guard:
                copy_stmts.append(If(_conjunction(guard), (copy,)))
            else:
                copy_stmts.append(copy)

    # ---- 3. per-read redirection (with optional pre-copy simplification) ---
    by_read: dict[tuple, tuple[Reference, list[Polyhedron]]] = {}
    for v in vios:
        key = (v.src.stmt_pos, v.src.alpha, v.src.subscripts)
        keep = list(nest.context_vars) + list(nest.fused_vars)
        proj = project_onto(v.poly, keep)
        ref, polys = by_read.setdefault(key, (v.src, []))
        if proj not in polys:
            polys.append(proj)

    groups = {g.index: g for g in nest.groups}
    group_k = groups[k]
    body = list(group_k.body)
    preamble: list[Stmt] = list(nest.preamble)
    precopied = redirected = 0
    # Every write of the variable, for the pre-copy's never-written test.
    writes = [
        w
        for g in (nest.groups if simplify else ())
        for w in session.references(nest, g, value_ranges)
        if w.is_write and w.name == name
    ]
    for (stmt_pos, *_rest), (ref, polys) in sorted(
        by_read.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
    ):
        disjuncts = [
            [c for c in p.constraints if not implies(ref.domain, c)]
            for p in polys
        ]
        precopy_elems = None
        if simplify:
            precopy_elems = _precopy_element_set(ref, disjuncts, writes)
        if precopy_elems is not None:
            preamble.extend(
                _emit_precopy(precopy_elems, copy_name, name, is_scalar, namer)
            )
            body[stmt_pos] = _redirect_read(
                body[stmt_pos], ref, copy_name, cond=None, is_scalar=is_scalar
            )
            precopied += 1
        else:
            cond = _disjunction(disjuncts)
            body[stmt_pos] = _redirect_read(
                body[stmt_pos], ref, copy_name, cond=cond, is_scalar=is_scalar
            )
            redirected += 1

    # ---- 4. assemble ----------------------------------------------------------
    new_groups = []
    for g in nest.groups:
        if g.index == k:
            g = g.with_body(tuple(body))
        if g.index == k + 1:
            g = g.with_prologue(tuple(copy_stmts) + g.prologue)
        new_groups.append(g)
    base = nest.base
    if is_scalar:
        decl = base.scalar(name)
        base = base.adding_scalars([ScalarDecl(copy_name, decl.dtype)])
    else:
        decl = base.array(name)
        base = base.adding_arrays([ArrayDecl(copy_name, decl.extents, decl.dtype)])
    result = nest.with_base(base).with_groups(tuple(new_groups))
    result = result.with_preamble(tuple(preamble))
    record = CopyInsertion(
        array=name,
        src_group=k,
        copy_array=copy_name,
        guarded_copies=len(copy_stmts),
        precopied_reads=precopied,
        redirected_reads=redirected,
    )
    return result, record


def _check_write_once(nest, name, k, vios) -> None:
    """Verify each violating element is overwritten by at most one write
    instance per context iteration (makes every violating write the
    paper's min-earliest overwrite of its element)."""
    write_refs: dict[tuple[int, int, int], Reference] = {}
    for v in vios:
        write_refs[(v.dst.group, v.dst.stmt_pos, v.dst.alpha)] = v.dst
    refs = list(write_refs.values())
    for i, w1 in enumerate(refs):
        for w2 in refs[i:]:
            if _writes_collide(nest, w1, w2, same_ref=w1 is w2):
                raise TransformError(
                    f"ElimRW on {name}: multiple same-context writes can hit "
                    "one element; the min-earliest copy set would need a "
                    "case split (not implemented)"
                )


def _writes_collide(nest, w1: Reference, w2: Reference, *, same_ref: bool) -> bool:
    """Can two (distinct) write instances of one context iteration write the
    same element?"""
    suffix = "_w2"
    ren = {v: v + suffix for v in nest.fused_vars + w2.fuzzy}
    base = same_element(w1, w2.renamed(ren))
    # Distinct instances: differ in some fused dimension.
    for v in nest.fused_vars:
        diff = LinExpr.var(v) - LinExpr.var(v + suffix)
        for sign in (1, -1):
            poly = base.with_constraints([ge0(diff * sign - 1)])
            if integer_feasible(poly):
                return True
    if not same_ref:
        # Same iteration but different statements also collide.
        same = base.with_constraints(
            [eq0(LinExpr.var(v) - LinExpr.var(v + suffix)) for v in nest.fused_vars]
        )
        if integer_feasible(same):
            return True
    return False


def _copy_refs(copy_name: str, name: str, wref: Reference, is_scalar: bool):
    if is_scalar:
        return VarRef(copy_name), VarRef(name)
    subs = [linexpr_to_expr(s) for s in wref.subscripts]
    return ArrayRef(copy_name, subs), ArrayRef(name, subs)


def _conjunction(constraints: Sequence[Constraint]) -> Expr:
    from repro.ir.builder import and_

    return and_(*[constraint_to_cond(c) for c in constraints])


def _disjunction(disjuncts: list[list[Constraint]]) -> Expr:
    from repro.ir.builder import and_, or_

    parts: list[Expr] = []
    for d in disjuncts:
        if not d:
            # One disjunct is always true: the whole condition is true.
            from repro.ir.builder import ceq, val

            return ceq(val(0), val(0))
        parts.append(and_(*[constraint_to_cond(c) for c in d]))
    return or_(*parts)


def _precopy_element_set(
    ref: Reference,
    disjuncts: list[list[Constraint]],
    writes: list[Reference],
) -> Polyhedron | None:
    """The elements read while ``C_R`` is false, when no instance of any
    of *writes* (every write of the variable in the nest) touches them;
    None when the simplification does not apply."""
    if not ref.subscripts:
        return None  # scalars: nothing to pre-copy
    # Complementable only for a single one-inequality disjunct.
    if len(disjuncts) != 1 or len(disjuncts[0]) != 1:
        return None
    c = disjuncts[0][0]
    if c.kind is not Kind.GE:
        return None
    unguarded = replace(ref, domain=ref.domain.with_constraints([ge0(-c.expr - 1)]))
    for w in writes:
        # Any instance of the write, in any context iteration.
        ren = {v: v + "_w" for v in w.domain.variables}
        if integer_feasible(same_element(unguarded, w.renamed(ren))):
            return None
    # Element coordinates as fresh dims bound to the subscripts.
    e0 = unguarded.domain
    elem_vars = tuple(f"_e{d}" for d in range(len(ref.subscripts)))
    widened = e0.with_variables(e0.variables + elem_vars)
    widened = widened.with_constraints(
        [eq0(LinExpr.var(ev) - s) for ev, s in zip(elem_vars, ref.subscripts)]
    )
    return project_onto(widened, list(elem_vars))


def _emit_precopy(
    elems: Polyhedron, copy_name: str, name: str, is_scalar: bool, namer: NameGenerator
) -> list[Stmt]:
    """Loops copying every element of *elems* into the copy array."""
    assert not is_scalar
    names = {ev: namer.fresh("c") for ev in elems.variables}
    subs = [VarRef(c) for c in names.values()]
    body = (Assign(ArrayRef(copy_name, subs), ArrayRef(name, subs)),)
    return [emit_loops(elems.rename(names), list(names.values()), body)]


def _redirect_read(
    stmt: Stmt,
    ref: Reference,
    copy_name: str,
    *,
    cond: Expr | None,
    is_scalar: bool,
) -> Stmt:
    """Rewrite matching read occurrences in *stmt* to use the copy array."""
    from repro.ir.affine import expr_to_linexpr

    def matches(node: Expr) -> bool:
        if is_scalar:
            return isinstance(node, VarRef) and node.name == ref.name
        if not (isinstance(node, ArrayRef) and node.name == ref.name):
            return False
        try:
            subs = tuple(expr_to_linexpr(e) for e in node.indices)
        except Exception:
            return False
        return subs == ref.subscripts

    def rewrite(expr: Expr) -> Expr:
        def fn(node: Expr) -> Expr:
            if matches(node):
                replacement: Expr
                if is_scalar:
                    replacement = VarRef(copy_name)
                else:
                    replacement = ArrayRef(copy_name, node.children())
                if cond is None:
                    return replacement
                return Select(cond, replacement, node)
            return node

        return map_expr(expr, fn)

    def transform(s: Stmt) -> Stmt:
        if isinstance(s, Assign):
            # Only the value side reads; subscript reads of the target are
            # reads of index variables, not of the redirected array element.
            return Assign(s.target, rewrite(s.value))
        if isinstance(s, If):
            return If(
                rewrite(s.cond),
                tuple(transform(t) for t in s.then),
                tuple(transform(t) for t in s.orelse),
            )
        if isinstance(s, Loop):
            return Loop(
                s.var,
                s.lower,
                s.upper,
                tuple(transform(t) for t in s.body),
                s.step,
            )
        raise TransformError(f"unsupported statement {s!r}")

    return transform(stmt)
