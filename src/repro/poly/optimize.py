"""Proving affine inequalities over a parameter domain.

:func:`affine_ge` lets loop generation (:mod:`repro.trans.loopgen`) drop a
loop bound that another bound dominates for every admissible parameter
value.
"""

from __future__ import annotations

from typing import Iterable

from repro.poly import memo
from repro.poly.constraint import ge0
from repro.poly.integer import rationally_empty
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron


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
    violating = extra.with_constraints([ge0(rhs - lhs - 1)])
    return rationally_empty(violating)
