"""Post-FixDeps cleanups.

- :func:`scalarize_arrays` replaces a temporary array whose every element
  lives only within one iteration of the surrounding nest by a scalar
  (the paper eliminates Jacobi's ``L`` this way: "L(j,i) can be replaced by
  a scalar").
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.ir.expr import ArrayRef, Cmp, Expr, VarRef, map_expr, walk_expr
from repro.ir.program import Program, ScalarDecl
from repro.ir.stmt import Assign, If, Loop, Stmt, map_stmt_exprs, walk_stmts


def _array_occurrences(program: Program, name: str) -> list[ArrayRef]:
    from repro.ir.stmt import stmt_expressions

    occs: list[ArrayRef] = []
    for stmt in walk_stmts(program.body):
        for top in stmt_expressions(stmt):
            for node in walk_expr(top):
                if isinstance(node, ArrayRef) and node.name == name:
                    occs.append(node)
    return occs


def _writes_then_reads_per_iteration(program: Program, name: str) -> bool:
    """All refs share one subscript tuple, live in one innermost body, and
    the write comes first."""
    occs = _array_occurrences(program, name)
    if not occs:
        return False
    subs = occs[0].indices
    if any(o.indices != subs for o in occs):
        return False
    # Find the innermost body containing any reference and check ordering:
    # a write assignment to `name` must appear before any read of it.
    for stmt in walk_stmts(program.body):
        if isinstance(stmt, Loop):
            seen_write = False
            for inner in stmt.body:
                for s in walk_stmts([inner]):
                    if isinstance(s, Assign):
                        reads_it = any(
                            isinstance(n, ArrayRef) and n.name == name
                            for n in walk_expr(s.value)
                        )
                        writes_it = (
                            isinstance(s.target, ArrayRef) and s.target.name == name
                        )
                        if reads_it and not seen_write:
                            return False
                        if writes_it:
                            seen_write = True
    return True


def scalarize_arrays(
    program: Program, names: list[str] | None = None, *, name: str | None = None
) -> Program:
    """Replace iteration-local temporary arrays by scalars.

    With ``names=None`` every non-output array satisfying the safety check
    is scalarised.
    """
    candidates = [
        a.name
        for a in program.arrays
        if a.name not in program.outputs and (names is None or a.name in names)
    ]
    chosen = [
        n for n in candidates if _writes_then_reads_per_iteration(program, n)
    ]
    if names is not None:
        missed = set(names) - set(chosen)
        if missed:
            raise TransformError(
                f"cannot scalarise {sorted(missed)}: per-iteration locality "
                "check failed"
            )
    if not chosen:
        return program

    scalar_names = {n: f"{n.lower()}_s" for n in chosen}

    def rewrite(expr: Expr) -> Expr:
        def fn(node: Expr) -> Expr:
            if isinstance(node, ArrayRef) and node.name in scalar_names:
                return VarRef(scalar_names[node.name])
            return node

        return map_expr(expr, fn)

    body = tuple(map_stmt_exprs(s, rewrite) for s in program.body)
    arrays = tuple(a for a in program.arrays if a.name not in chosen)
    scalars = program.scalars + tuple(
        ScalarDecl(scalar_names[n], program.array(n).dtype) for n in chosen
    )
    out = Program(
        program.name, program.params, arrays, scalars, body, program.outputs
    )
    return out.with_name(name or program.name)


def propagate_guard_facts(program: Program) -> Program:
    """Simplify nested guards using enclosing branch facts.

    Inside the then-branch of ``if (c)`` the comparison ``c`` is true;
    inside the else-branch it is false. Nested conditions drop conjuncts
    known true, and a nested guard with a conjunct known false loses its
    then-branch entirely. Facts are only tracked for comparisons whose
    names are never assigned in the governed region (conservative).

    Combined with :func:`repro.trans.unswitch.unswitch_invariant_guards`
    this "undoes the effect of code sinking" (paper Sec. 4) in the tiled
    codes: hoisted guards make their copies' residual conjuncts decidable.
    """
    from repro.ir.analysis import written_names
    from repro.ir.expr import Cmp, LogicalAnd, free_names

    def stable(cond: Expr, region: tuple[Stmt, ...]) -> bool:
        return not (free_names(cond) & written_names(region))

    def simplify_cond(cond: Expr, true_facts: frozenset, false_facts: frozenset):
        """Return simplified cond, or True/False when decided."""
        if isinstance(cond, Cmp):
            if cond in true_facts:
                return True
            if cond in false_facts:
                return False
            return cond
        if isinstance(cond, LogicalAnd):
            kept = []
            for arg in cond.args:
                s = simplify_cond(arg, true_facts, false_facts)
                if s is False:
                    return False
                if s is True:
                    continue
                kept.append(s)
            if not kept:
                return True
            if len(kept) == 1:
                return kept[0]
            return LogicalAnd(kept)
        return cond

    def rec(stmts: tuple[Stmt, ...], true_facts: frozenset, false_facts: frozenset):
        out: list[Stmt] = []
        for s in stmts:
            if isinstance(s, If):
                cond = simplify_cond(s.cond, true_facts, false_facts)
                if cond is True:
                    out.extend(rec(s.then, true_facts, false_facts))
                    continue
                if cond is False:
                    out.extend(rec(s.orelse, true_facts, false_facts))
                    continue
                tf, ff = true_facts, false_facts
                if isinstance(cond, Cmp) and stable(cond, s.then):
                    tf = true_facts | {cond}
                ef, eff = true_facts, false_facts
                if isinstance(cond, Cmp) and stable(cond, s.orelse):
                    eff = false_facts | {cond}
                then = rec(s.then, tf, false_facts)
                orelse = rec(s.orelse, ef, eff)
                if not then and not orelse:
                    continue
                if not then and orelse:
                    from repro.ir.builder import not_

                    out.append(If(not_(cond), tuple(orelse)))
                else:
                    out.append(If(cond, tuple(then), tuple(orelse)))
            elif isinstance(s, Loop):
                # The loop re-binds its variable: facts mentioning it die.
                tf = frozenset(
                    c for c in true_facts if s.var not in free_names(c)
                )
                ff = frozenset(
                    c for c in false_facts if s.var not in free_names(c)
                )
                out.append(Loop(s.var, s.lower, s.upper, rec(s.body, tf, ff), s.step))
            else:
                out.append(s)
        return out

    return program.with_body(tuple(rec(program.body, frozenset(), frozenset())))

