"""The legality proof for rectangular tiling: full permutability.

A band of loops can be rectangularly tiled (any interleaving of its
strip-mined loops) iff it is *fully permutable*: no dependence has a
negative distance in any band dimension. :func:`fully_permutable_under`
decides this exactly on the dependence polyhedra after a unimodular map
(the identity for the nest as written), so skewing choices (Jacobi's and
Gauss–Seidel's time skews) are *proven* to make a band permutable rather
than just tested by execution. A one-row band ``[0]`` under a loop
permutation is the outermost-level half of permutation legality: on an
affine nest, ``False`` there means the permuted nest runs some dependence
backwards.

A ``False`` answer means "not proven", not "illegal". A recipe's tiling is
legal because this check proves it or because the recipe's schedule (a
skew) makes it so; it is never inferred from a run at a small size. LU,
whose pivot machinery is non-affine, is declined; its recipe keeps the
paper's k-tiling, which the tests compare with the reference at sizes
spanning several tiles.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.deps.access import ValueRange
from repro.deps.selfdeps import self_dependences
from repro.errors import TransformError
from repro.ir.stmt import Stmt
from repro.poly.constraint import ge0
from repro.poly.integer import check_feasibility


def fully_permutable_under(
    stmt: Stmt,
    U: Sequence[Sequence[int]],
    band: Sequence[int] | None = None,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> bool:
    """Prove that after the unimodular map ``u = U @ x`` the *band* of
    transformed dimensions (default: all) is fully permutable.

    For each dependence component polyhedron and each band row ``r``, the
    set of instances with ``(U @ (sink - source))_r <= -1`` must be
    infeasible.
    """
    deps = self_dependences(stmt, value_ranges=value_ranges)
    if not deps:
        return True
    depth = len(deps[0].loop_vars)
    if len(U) != depth or any(len(row) != depth for row in U):
        raise TransformError(f"U must be {depth}x{depth}")
    rows = [U[r] for r in band] if band is not None else list(U)
    for dep in deps:
        diffs = [dep.sink_minus_source(level) for level in range(depth)]
        for row in rows:
            transformed = sum(
                (diffs[c] * row[c] for c in range(depth) if row[c]),
                start=diffs[0] * 0,
            )
            for poly in dep.polys:
                probe = poly.with_constraints([ge0(-transformed - 1)])
                if check_feasibility(probe).feasible:
                    return False
    return True
