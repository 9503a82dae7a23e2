"""Integer feasibility of parametric polyhedra.

Dependence-set emptiness is the central legality question of the paper: a
fusion is legal iff the fusion-preventing sets (Eq. 5–6) are empty. The sets
are parametric in the problem sizes, so "empty" means *empty for every
admissible parameter value*.

Strategy (sound and, for the affine programs handled here, complete):

1. **Rational emptiness** — eliminate all dimensions *and* parameters with
   Fourier–Motzkin; a constant contradiction proves integer emptiness for
   all parameter values, and the elimination stops at the first one. This
   direction needs no integrality reasoning.
2. **Witness search** — otherwise, bound each parameter to the probe window
   ``PARAM_LO <= p <= PARAM_LO + PARAM_WIDTH`` and search for an integer
   point by enumeration.
   A witness proves non-emptiness. For the unit-coefficient systems produced
   by loop nests, rational feasibility implies an integer witness in a small
   window, so the two steps together are decisive; if neither fires we
   conservatively report *feasible* (a spurious dependence only costs
   performance, never correctness) and flag it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.poly import memo
from repro.poly.constraint import Constraint, Kind, ge, ge0
from repro.poly.enumerate import enumerate_points
from repro.poly.fm import rationally_empty
from repro.poly.linexpr import Coef, LinExpr
from repro.poly.polyhedron import Polyhedron

#: The smallest admissible problem size: every symbolic parameter is at
#: least this (the paper's kernels run at N >= 200). The witness search
#: probes from it, and loop generation prunes bounds over it.
PARAM_LO = 4
#: Width of the probe window used in the witness search.
PARAM_WIDTH = 11


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of an integer feasibility query."""

    feasible: bool
    #: A satisfying assignment (dims and probed parameters) when found.
    witness: dict[str, int] | None
    #: True when the answer was proven (rational emptiness or witness);
    #: False when the conservative default was used.
    decisive: bool


def implies(poly: Polyhedron, constraint: Constraint) -> bool:
    """Does every point of *poly* satisfy *constraint*?

    Sound and exact up to the rational relaxation: ``e >= 0`` is implied
    iff *poly* with ``e <= -1`` (its integer negation) is rationally
    empty, and an equality iff both its inequalities are. A constant
    constraint is decided on its own. False means "not proven".
    """
    if constraint.expr.is_constant():
        return constraint.is_trivial_true()
    return memo.memoize(
        "implies",
        (poly.fingerprint(), constraint.fingerprint_text()),
        lambda: _implies(poly, constraint),
    )


def _implies(poly: Polyhedron, constraint: Constraint) -> bool:
    e = constraint.expr
    if constraint.kind is Kind.EQ:
        return implies(poly, ge0(e)) and implies(poly, ge0(-e))
    return rationally_empty(poly.with_constraints([ge0(-e - 1)]))


def _probed(poly: Polyhedron) -> Polyhedron:
    """*poly* with its parameters turned into dimensions bounded to the
    probe window."""
    params = sorted(poly.parameters())
    bounds = []
    for p in params:
        bounds.append(ge(LinExpr.var(p), PARAM_LO))
        bounds.append(ge(LinExpr.const(PARAM_LO + PARAM_WIDTH), LinExpr.var(p)))
    widened = poly.with_variables(tuple(poly.variables) + tuple(params))
    return widened.with_constraints(bounds)


def find_integer_point(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None = None,
) -> dict[str, int] | None:
    """Search for one integer point.

    With *param_env* given, parameters are fixed and the search is exact.
    Otherwise parameters are probed over the window from :data:`PARAM_LO`.
    """
    if param_env is not None or not poly.parameters():
        for point in enumerate_points(poly, param_env, limit=1):
            return point
        return None
    for point in enumerate_points(_probed(poly), {}, limit=1):
        return point
    return None


def check_feasibility(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None = None,
) -> FeasibilityResult:
    """Full-detail integer feasibility (see module docstring)."""
    return memo.memoize(
        "feas",
        (poly.fingerprint(), memo.env_key(param_env)),
        lambda: _check_feasibility(poly, param_env),
    )


def _check_feasibility(
    poly: Polyhedron, param_env: Mapping[str, Coef] | None
) -> FeasibilityResult:
    if param_env is not None:
        witness = find_integer_point(poly, param_env)
        return FeasibilityResult(witness is not None, witness, decisive=True)
    if rationally_empty(poly):
        return FeasibilityResult(False, None, decisive=True)
    witness = find_integer_point(poly)
    if witness is not None:
        return FeasibilityResult(True, witness, decisive=True)
    # Rationally feasible but no integer witness in the probe window:
    # conservative answer.
    return FeasibilityResult(True, None, decisive=False)


def integer_feasible(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None = None,
) -> bool:
    """Boolean form of :func:`check_feasibility`."""
    return check_feasibility(poly, param_env).feasible
