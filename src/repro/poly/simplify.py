"""Exact implication test for a single constraint.

A constraint is implied by a polyhedron iff the polyhedron with the
constraint *negated* (over the integers: ``e >= 0`` becomes ``e <= -1``)
is empty — checked with the sound rational test. Index-set splitting
uses it to drop guards that a widened domain already guarantees.
"""

from __future__ import annotations

from repro.poly.constraint import Constraint, Kind, ge0
from repro.poly.integer import rationally_empty
from repro.poly.polyhedron import Polyhedron


def is_implied(poly: Polyhedron, constraint: Constraint) -> bool:
    """Does *poly* (as given) already force *constraint*?

    Sound but incomplete for equalities (both inequalities must be
    implied); exact for inequalities up to the rational relaxation.
    """
    if constraint.kind is Kind.EQ:
        return is_implied(poly, ge0(constraint.expr)) and is_implied(
            poly, ge0(-constraint.expr)
        )
    violating = poly.with_constraints([ge0(-constraint.expr - 1)])
    return rationally_empty(violating)
