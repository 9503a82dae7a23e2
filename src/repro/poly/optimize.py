"""Parametric optimisation of affine objectives over polyhedra.

Used for line 22 of the paper's ``ElimWW_WR``:

    d_i = max{ I_i - I'_i | (I, I') in D_i }        (max of empty set = 0)

The result is affine in the parameters except for an outer ``min`` (of upper
bounds) / ``max`` (of lower bounds), which is exactly what
:mod:`repro.symbolic` represents.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import PolyhedronError, UnboundedError
from repro.poly import memo
from repro.poly.constraint import equals
from repro.poly.fm import project_onto
from repro.poly.integer import rationally_empty
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.symbolic.terms import SymExpr, sym_max, sym_min
from repro.utils.naming import fresh_name


def _objective_shadow(poly: Polyhedron, objective: LinExpr) -> tuple[Polyhedron, str]:
    """Project the polyhedron onto a fresh variable ``t == objective``."""
    used = set(poly.variables) | poly.parameters() | objective.variables()
    t = fresh_name("t", used)
    widened = poly.with_variables(tuple(poly.variables) + (t,))
    widened = widened.with_constraints([equals(LinExpr.var(t), objective)])
    return project_onto(widened, [t]), t


def parametric_max(poly: Polyhedron, objective: LinExpr) -> SymExpr | None:
    """Symbolic maximum of *objective* over *poly*, in the parameters.

    Returns ``None`` when the set is (rationally) empty. Raises
    :class:`UnboundedError` when no upper bound exists.

    The value returned is the *rational* maximum (min of FM upper bounds).
    For the unit-coefficient systems produced by loop nests this equals the
    integer maximum; tests cross-check against enumeration.
    """
    return memo.memoize(
        "pmax",
        (poly.fingerprint(), objective.fingerprint_text()),
        lambda: _parametric_extreme(poly, objective, want_max=True),
    )


def parametric_min(poly: Polyhedron, objective: LinExpr) -> SymExpr | None:
    """Symbolic minimum of *objective* over *poly* (see parametric_max)."""
    return memo.memoize(
        "pmin",
        (poly.fingerprint(), objective.fingerprint_text()),
        lambda: _parametric_extreme(poly, objective, want_max=False),
    )


def _parametric_extreme(
    poly: Polyhedron, objective: LinExpr, *, want_max: bool
) -> SymExpr | None:
    if rationally_empty(poly):
        return None
    shadow, t = _objective_shadow(poly, objective)
    lowers, uppers = shadow.bounds_on(t)
    if want_max:
        if not uppers:
            raise UnboundedError(f"objective {objective} unbounded above on {poly}")
        return sym_min(uppers)
    if not lowers:
        raise UnboundedError(f"objective {objective} unbounded below on {poly}")
    return sym_max(lowers)


def affine_ge(
    lhs: LinExpr,
    rhs: LinExpr,
    param_domain: Polyhedron | None = None,
) -> bool:
    """Soundly decide ``lhs >= rhs`` for all parameter values in a domain.

    Returns True only when proven: the set ``{ p in domain : lhs < rhs }``
    must be rationally empty. A False answer means "not proven", not
    "false".
    """
    diff = lhs - rhs
    if diff.is_constant():
        return diff.constant >= 0
    domain_fp = param_domain.fingerprint() if param_domain is not None else "-"
    return memo.memoize(
        "age",
        (lhs.fingerprint_text(), rhs.fingerprint_text(), domain_fp),
        lambda: _affine_ge(lhs, rhs, param_domain, diff),
    )


def _affine_ge(
    lhs: LinExpr,
    rhs: LinExpr,
    param_domain: Polyhedron | None,
    diff: LinExpr,
) -> bool:
    params: Iterable[str] = sorted(diff.variables())
    if param_domain is None:
        param_domain = Polyhedron(tuple(params))
    extra = param_domain.with_variables(
        tuple(dict.fromkeys(tuple(param_domain.variables) + tuple(params)))
    )
    # lhs < rhs over the integers: lhs <= rhs - 1, i.e. rhs - lhs - 1 >= 0.
    from repro.poly.constraint import ge0  # local import to avoid cycle noise

    violating = extra.with_constraints([ge0(rhs - lhs - 1)])
    return rationally_empty(violating)


def unique_extreme_bound(
    bounds: list[LinExpr],
    *,
    lower: bool,
    param_domain: Polyhedron | None = None,
) -> LinExpr | None:
    """Pick the single dominating bound from *bounds* when one exists.

    For lower bounds the dominating bound is the pointwise greatest; for
    upper bounds the pointwise least. Returns ``None`` when domination can't
    be proven for any candidate.
    """
    if not bounds:
        raise PolyhedronError("no bounds given")
    for cand in bounds:
        ok = True
        for other in bounds:
            if other is cand:
                continue
            if lower and not affine_ge(cand, other, param_domain):
                ok = False
                break
            if not lower and not affine_ge(other, cand, param_domain):
                ok = False
                break
        if ok:
            return cand
    return None

