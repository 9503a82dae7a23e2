"""Integer-point enumeration over polyhedra with concrete parameters.

Enumeration is the ground-truth oracle for the symbolic solvers: tests check
Fourier–Motzkin projections and feasibility answers against brute force on
small instances. It is also how integer feasibility finds a witness point
once every parameter is concrete.

Points are yielded in lexicographic order of the polyhedron's dimension
tuple, which makes ``next(iter(...))`` the lexicographic minimum.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

from repro.errors import UnboundedError
from repro.poly.fm import project_onto
from repro.poly.linexpr import Coef
from repro.poly.polyhedron import Polyhedron


def _projection_chain(poly: Polyhedron) -> list[Polyhedron]:
    """``chain[i]`` is the projection onto the first ``i+1`` dimensions."""
    chain = []
    for i in range(1, len(poly.variables) + 1):
        chain.append(project_onto(poly, list(poly.variables[:i])))
    return chain


def _range_at(
    poly: Polyhedron, var: str, env: dict[str, Coef]
) -> tuple[int, int] | None:
    """Integer [lo, hi] for *var* in *poly* given earlier dims bound in *env*.

    Returns ``None`` for an empty range. Raises UnboundedError when a side
    has no bound.
    """
    lowers, uppers = poly.bounds_on(var)
    if not lowers or not uppers:
        raise UnboundedError(f"variable {var} is unbounded in {poly}")
    lo = max(math.ceil(b.evaluate(env)) for b in lowers)
    hi = min(math.floor(b.evaluate(env)) for b in uppers)
    if lo > hi:
        return None
    return lo, hi


def enumerate_points(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None = None,
    *,
    limit: int | None = None,
) -> Iterator[dict[str, int]]:
    """Yield every integer point of *poly* as ``{var: value}`` dicts.

    *param_env* must bind every parameter. Yields at most *limit* points when
    given (useful for existence checks).
    """
    env0: dict[str, Coef] = dict(param_env or {})
    missing = poly.parameters() - set(env0)
    if missing:
        raise UnboundedError(
            f"enumerate_points needs concrete parameters; unbound: {sorted(missing)}"
        )
    if poly.is_trivially_empty():
        return
    dims = poly.variables
    if not dims:
        if poly.contains(env0):
            yield {}
        return
    chain = _projection_chain(poly)
    count = 0

    def rec(level: int, env: dict[str, Coef]) -> Iterator[dict[str, int]]:
        nonlocal count
        var = dims[level]
        rng = _range_at(chain[level], var, env)
        if rng is None:
            return
        lo, hi = rng
        for value in range(lo, hi + 1):
            env[var] = value
            if level + 1 == len(dims):
                # FM chains are rational shadows; re-check the full system.
                if poly.contains(env):
                    count += 1
                    yield {d: int(env[d]) for d in dims}
                    if limit is not None and count >= limit:
                        del env[var]
                        return
            else:
                yield from rec(level + 1, env)
                if limit is not None and count >= limit:
                    break
        env.pop(var, None)

    yield from rec(0, env0)

