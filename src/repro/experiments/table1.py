"""Table 1: which methods handle which kernels.

The paper compares five approaches on the four kernels:

| Method                        | LU | QR | Cholesky | Jacobi |
|-------------------------------|----|----|----------|--------|
| Matrix factorisations [2]     | y  | y  | y        | x      |
| Stencil computations [12]     | x  | x  | x        | y      |
| Data shackling [8]            | y  | y  | y        | x      |
| Iteration-space transforms [1]| x  | x  | y        | y      |
| This work                     | y  | y  | y        | y      |

The prior-work rows are reproduced as *structural predicates* over the
kernel IR, encoding each method's published applicability conditions
(factorisation-shaped triangular nests, stencil-shaped uniform offsets,
absence of data-dependent control / cross-nest scalar reductions). The
"this work" row is **computed**: it is true iff our FixDeps pipeline
actually produces a validated fused program for the kernel.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.ir.analysis import as_perfect_nest
from repro.ir.affine import is_affine_condition
from repro.ir.expr import ArrayRef, BinOp, Const, VarRef, walk_expr
from repro.ir.program import Program
from repro.ir.stmt import Assign, If, Loop, stmt_expressions, walk_stmts
from repro.kernels.recipes import build_variant
from repro.kernels.registry import KERNELS, get_kernel
from repro.utils.tables import render_table

#: The paper's Table 1, for comparison (True = handled).
PAPER_TABLE1 = {
    "matrix-factorisations": {"lu": True, "qr": True, "cholesky": True, "jacobi": False},
    "stencil-computations": {"lu": False, "qr": False, "cholesky": False, "jacobi": True},
    "data-shackling": {"lu": True, "qr": True, "cholesky": True, "jacobi": False},
    "iteration-space-transforms": {"lu": False, "qr": False, "cholesky": True, "jacobi": True},
    "this-work": {"lu": True, "qr": True, "cholesky": True, "jacobi": True},
}


# -- structural predicates ---------------------------------------------------


def _loop_vars(program: Program) -> frozenset[str]:
    return program.loop_variables()


def is_stencil(program: Program) -> bool:
    """Uniform-offset array accesses (var +/- const in every subscript) with
    at least one non-zero offset — the shape [12]'s techniques target."""
    lvars = _loop_vars(program)
    saw_offset = False
    for stmt in walk_stmts(program.body):
        if not isinstance(stmt, Assign):
            continue
        for top in stmt_expressions(stmt):
            for node in walk_expr(top):
                if not isinstance(node, ArrayRef):
                    continue
                for sub in node.indices:
                    kind = _uniform_kind(sub, lvars)
                    if kind is None:
                        return False
                    if kind == "offset":
                        saw_offset = True
    return saw_offset


def _uniform_kind(sub, lvars) -> str | None:
    """'plain' for a bare loop var, 'offset' for var +/- const, else None."""
    if isinstance(sub, VarRef) and sub.name in lvars:
        return "plain"
    if isinstance(sub, BinOp) and sub.op in "+-":
        if (
            isinstance(sub.lhs, VarRef)
            and sub.lhs.name in lvars
            and isinstance(sub.rhs, Const)
        ):
            return "offset"
    return None


def is_triangular_factorisation(program: Program) -> bool:
    """Inner loop bounds reference an outer loop variable and the kernel
    updates its array in place — the matrix-factorisation shape [2]."""
    for stmt in walk_stmts(program.body):
        if not isinstance(stmt, Loop):
            continue
        nest = as_perfect_nest(stmt)
        for depth, loop in enumerate(nest.loops[1:], start=1):
            outer_vars = {l.var for l in nest.loops[:depth]}
            names = set()
            for bound in (loop.lower, loop.upper):
                for node in walk_expr(bound):
                    if isinstance(node, VarRef):
                        names.add(node.name)
            if names & outer_vars:
                return True
    # Imperfect nests: any loop whose bound references an enclosing loop var.
    stack: list[str] = []

    def rec(stmts) -> bool:
        for s in stmts:
            if isinstance(s, Loop):
                for bound in (s.lower, s.upper):
                    for node in walk_expr(bound):
                        if isinstance(node, VarRef) and node.name in stack:
                            return True
                stack.append(s.var)
                if rec(s.body):
                    return True
                stack.pop()
            elif isinstance(s, If):
                if rec(s.then) or rec(s.orelse):
                    return True
        return False

    return rec(program.body)


def has_data_dependent_control(program: Program) -> bool:
    """Any guard condition outside the affine fragment (LU's pivot test)."""
    return any(
        isinstance(s, If) and not is_affine_condition(s.cond)
        for s in walk_stmts(program.body)
    )


def has_cross_nest_scalar_reduction(program: Program) -> bool:
    """A scalar accumulated in one loop and consumed outside it (QR's
    ``norm``) — the pattern that defeats pure iteration-space embeddings."""
    scalar_names = {s.name for s in program.scalars}
    if not scalar_names:
        return False
    for stmt in walk_stmts(program.body):
        if isinstance(stmt, Loop):
            reduced = set()
            for inner in walk_stmts(stmt.body):
                if (
                    isinstance(inner, Assign)
                    and isinstance(inner.target, VarRef)
                    and inner.target.name in scalar_names
                ):
                    # self-referencing update => reduction
                    if any(
                        isinstance(n, VarRef) and n.name == inner.target.name
                        for n in walk_expr(inner.value)
                    ):
                        reduced.add(inner.target.name)
            if reduced:
                return True
    return False


# -- method applicability ----------------------------------------------------


def _this_work_handles(kernel: str) -> bool:
    """Computed: does the FixDeps pipeline produce a fixed program?"""
    try:
        build_variant(kernel, "fixed")
        return True
    except ReproError:
        return False


def applicability(kernel: str) -> dict[str, bool]:
    """One column of Table 1."""
    seq = get_kernel(kernel).sequential()
    stencil = is_stencil(seq)
    return {
        "matrix-factorisations": is_triangular_factorisation(seq) and not stencil,
        "stencil-computations": stencil,
        "data-shackling": not stencil,
        "iteration-space-transforms": not has_data_dependent_control(seq)
        and not has_cross_nest_scalar_reduction(seq),
        "this-work": _this_work_handles(kernel),
    }


def generate() -> dict[str, dict[str, bool]]:
    """method -> kernel -> handled."""
    table: dict[str, dict[str, bool]] = {m: {} for m in PAPER_TABLE1}
    for kernel in KERNELS:
        col = applicability(kernel)
        for method, ok in col.items():
            table[method][kernel] = ok
    return table


def render(table: dict[str, dict[str, bool]] | None = None) -> str:
    """Text rendering with agreement check against the paper."""
    table = table or generate()
    rows = []
    mismatches = []
    for method, cols in table.items():
        rows.append([method, *(cols[k] for k in KERNELS)])
        for k in KERNELS:
            if cols[k] != PAPER_TABLE1[method][k]:
                mismatches.append(f"{method}/{k}")
    text = render_table(
        ["method", *KERNELS],
        rows,
        title="Table 1 — capability comparison (yes = handles the kernel)",
    )
    verdict = (
        "matches the paper's Table 1"
        if not mismatches
        else f"MISMATCHES vs paper: {', '.join(mismatches)}"
    )
    return f"{text}\n\n{verdict}"
