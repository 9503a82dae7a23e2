"""Integer feasibility of parametric polyhedra.

Dependence-set emptiness is the central legality question of the paper: a
fusion is legal iff the fusion-preventing sets (Eq. 5–6) are empty. The sets
are parametric in the problem sizes, so "empty" means *empty for every
admissible parameter value*.

Strategy (sound and, for the affine programs handled here, complete):

1. **Rational emptiness** — eliminate all dimensions *and* parameters with
   Fourier–Motzkin; a constant contradiction proves integer emptiness for
   all parameter values. This direction needs no integrality reasoning.
2. **Witness search** — otherwise, bound each parameter to a probe window
   ``lo <= p <= lo + width`` and search for an integer point by enumeration.
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
from repro.poly.constraint import ge
from repro.poly.enumerate import enumerate_points
from repro.poly.fm import project_onto
from repro.poly.linexpr import Coef, LinExpr
from repro.poly.polyhedron import Polyhedron

#: Default inclusive lower bound assumed for every symbolic parameter
#: (problem sizes are at least a few iterations in all paper kernels).
DEFAULT_PARAM_LO = 1
#: Width of the probe window used in the witness search.
DEFAULT_PARAM_WIDTH = 11


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of an integer feasibility query."""

    feasible: bool
    #: A satisfying assignment (dims and probed parameters) when found.
    witness: dict[str, int] | None
    #: True when the answer was proven (rational emptiness or witness);
    #: False when the conservative default was used.
    decisive: bool


def rationally_empty(poly: Polyhedron) -> bool:
    """True iff the rational relaxation (parameters existential) is empty."""
    if poly.is_trivially_empty():
        return True
    return memo.memoize(
        "rempty", (poly.fingerprint(),), lambda: _rationally_empty(poly)
    )


def _rationally_empty(poly: Polyhedron) -> bool:
    # Promote parameters to dimensions, then eliminate everything.
    all_vars = tuple(poly.variables) + tuple(sorted(poly.parameters()))
    widened = poly.with_variables(all_vars)
    shadow = project_onto(widened, [])
    return shadow.is_trivially_empty()


def _probed(
    poly: Polyhedron,
    param_lo: Mapping[str, int] | int,
    width: int,
) -> tuple[Polyhedron, dict[str, int]]:
    """Turn parameters into dimensions bounded to probe windows."""
    params = sorted(poly.parameters())
    lo_of = (
        dict(param_lo)
        if isinstance(param_lo, Mapping)
        else {p: param_lo for p in params}
    )
    bounds = []
    for p in params:
        lo = lo_of.get(p, DEFAULT_PARAM_LO)
        bounds.append(ge(LinExpr.var(p), lo))
        bounds.append(ge(LinExpr.const(lo + width), LinExpr.var(p)))
    widened = poly.with_variables(tuple(poly.variables) + tuple(params))
    return widened.with_constraints(bounds), {p: lo_of.get(p, DEFAULT_PARAM_LO) for p in params}


def find_integer_point(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None = None,
    *,
    param_lo: Mapping[str, int] | int = DEFAULT_PARAM_LO,
    param_width: int = DEFAULT_PARAM_WIDTH,
) -> dict[str, int] | None:
    """Search for one integer point.

    With *param_env* given, parameters are fixed and the search is exact.
    Otherwise parameters are probed over windows starting at *param_lo*.
    """
    if param_env is not None or not poly.parameters():
        for point in enumerate_points(poly, param_env, limit=1):
            return point
        return None
    probed, _ = _probed(poly, param_lo, param_width)
    for point in enumerate_points(probed, {}, limit=1):
        return point
    return None


def check_feasibility(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None = None,
    *,
    param_lo: Mapping[str, int] | int = DEFAULT_PARAM_LO,
    param_width: int = DEFAULT_PARAM_WIDTH,
) -> FeasibilityResult:
    """Full-detail integer feasibility (see module docstring)."""
    return memo.memoize(
        "feas",
        (
            poly.fingerprint(),
            memo.env_key(param_env),
            memo.env_key(param_lo),
            param_width,
        ),
        lambda: _check_feasibility(poly, param_env, param_lo, param_width),
    )


def _check_feasibility(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None,
    param_lo: Mapping[str, int] | int,
    param_width: int,
) -> FeasibilityResult:
    if param_env is not None:
        witness = find_integer_point(poly, param_env)
        return FeasibilityResult(witness is not None, witness, decisive=True)
    if rationally_empty(poly):
        return FeasibilityResult(False, None, decisive=True)
    witness = find_integer_point(poly, param_lo=param_lo, param_width=param_width)
    if witness is not None:
        return FeasibilityResult(True, witness, decisive=True)
    # Rationally feasible but no integer witness in the probe window:
    # conservative answer.
    return FeasibilityResult(True, None, decisive=False)


def integer_feasible(
    poly: Polyhedron,
    param_env: Mapping[str, Coef] | None = None,
    *,
    param_lo: Mapping[str, int] | int = DEFAULT_PARAM_LO,
    param_width: int = DEFAULT_PARAM_WIDTH,
) -> bool:
    """Boolean form of :func:`check_feasibility`."""
    return check_feasibility(
        poly, param_env, param_lo=param_lo, param_width=param_width
    ).feasible
