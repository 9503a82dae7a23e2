"""Lexicographic minima of parametric integer sets (PIP-lite).

``ElimRW`` (paper Eq. 7) needs ``min_< RW̄_A(k)``: the lexicographically
earliest write that violates an anti-dependence, *parametric* in the read
iteration and the problem sizes. PIP or the Omega calculator solve this in
full generality; we implement the subset required by affine loop programs:

- dimension-wise descent: the first coordinate of the lexmin is the greatest
  lower bound of that coordinate over the projection; substituting it and
  recursing yields the remaining coordinates;
- the greatest lower bound must be a *single* affine function of the
  parameters over the whole parameter domain (checked soundly via
  :func:`repro.poly.optimize.unique_extreme_bound`); otherwise a
  :class:`~repro.errors.CaseSplitError` is raised and callers fall back to
  enumeration with concrete parameters;
- integer exactness requires the eliminated coefficients to be units, which
  :func:`repro.poly.fm.project_onto` enforces via ``require_exact``.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import CaseSplitError, UnboundedError
from repro.poly import memo
from repro.poly.enumerate import enumerate_points
from repro.poly.fm import project_onto
from repro.poly.integer import rationally_empty
from repro.poly.linexpr import Coef, LinExpr
from repro.poly.polyhedron import Polyhedron


def lexmin_enumerate(
    poly: Polyhedron, param_env: Mapping[str, Coef] | None = None
) -> dict[str, int] | None:
    """Exact lexmin by enumeration (points stream in lexicographic order)."""
    point = memo.memoize(
        "lexenum",
        (poly.fingerprint(), memo.env_key(param_env)),
        lambda: _lexmin_enumerate(poly, param_env),
    )
    return dict(point) if point is not None else None


def _lexmin_enumerate(
    poly: Polyhedron, param_env: Mapping[str, Coef] | None
) -> dict[str, int] | None:
    for point in enumerate_points(poly, param_env, limit=1):
        return point
    return None


def parametric_lexmin(
    poly: Polyhedron,
    param_domain: Polyhedron | None = None,
) -> list[LinExpr] | None:
    """Lexmin of *poly* as affine functions of its parameters.

    Returns one :class:`LinExpr` per dimension (in dimension order), or
    ``None`` when the set is rationally empty. Raises
    :class:`CaseSplitError` when the answer is not a single affine piece and
    :class:`UnboundedError` when some dimension has no lower bound.

    *param_domain* (over the parameter names) restricts the parameter values
    considered when proving bound domination; pass e.g. ``{N >= 4}``.
    """
    domain_fp = param_domain.fingerprint() if param_domain is not None else "-"
    value = memo.memoize(
        "plexmin",
        (poly.fingerprint(), domain_fp),
        lambda: _parametric_lexmin(poly, param_domain),
    )
    # Fresh list per call: memo hits alias the stored value.
    return list(value) if value is not None else None


def _parametric_lexmin(
    poly: Polyhedron,
    param_domain: Polyhedron | None,
) -> list[LinExpr] | None:
    if rationally_empty(poly):
        return None
    current = poly
    result: list[LinExpr] = []
    bindings: dict[str, LinExpr] = {}
    for var in poly.variables:
        proj = project_onto(current, [var], require_exact=True)
        lowers, _uppers = proj.bounds_on(var)
        if not lowers:
            raise UnboundedError(f"dimension {var} has no lower bound in {poly}")
        for b in lowers:
            if not b.is_integral():
                raise CaseSplitError(
                    f"lexmin of {var}: fractional bound {b} needs a ceil case split"
                )
        from repro.poly.optimize import unique_extreme_bound

        best = unique_extreme_bound(lowers, lower=True, param_domain=param_domain)
        if best is None:
            raise CaseSplitError(
                f"lexmin of {var}: no single dominating lower bound among "
                f"{[str(b) for b in lowers]}"
            )
        result.append(best)
        bindings[var] = best
        current = current.substitute({var: best})
        if rationally_empty(current.with_variables(
            tuple(v for v in poly.variables if v not in bindings)
        )):
            # The chosen bound must remain attainable; for exact unit systems
            # this cannot happen, so treat it as a case-split situation.
            raise CaseSplitError(
                f"lexmin of {var}: substituting {best} empties the set"
            )
    return result


def lexmin_with_fallback(
    poly: Polyhedron,
    param_domain: Polyhedron | None = None,
    param_env: Mapping[str, Coef] | None = None,
) -> list[LinExpr] | None:
    """Parametric lexmin, falling back to enumeration when parameters are
    concrete and the symbolic solve needs a case split."""
    try:
        return parametric_lexmin(poly, param_domain)
    except CaseSplitError:
        if param_env is None:
            raise
        point = lexmin_enumerate(poly, param_env)
        if point is None:
            return None
        return [LinExpr.const(point[v]) for v in poly.variables]
