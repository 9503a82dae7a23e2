"""Unit tests for the one implication test, :func:`repro.poly.implies`.

Guard pruning (fusion, ElimRW, index-set splitting) and loop-bound
domination (loop generation, as ``implies(domain, ge0(lhs - rhs))``) all
ask it whether a polyhedron forces a constraint.
"""

import pytest

from repro.poly.constraint import eq0, ge, ge0, le
from repro.poly.integer import implies
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

i, j, k, N = (LinExpr.var(v) for v in ("i", "j", "k", "N"))
ONE = LinExpr.const(1)

CASES = {
    # inequalities: exact up to the rational relaxation
    "weaker_bound": (Polyhedron(("i",), [ge(i, 5)]), ge(i, 3), True),
    "stronger_bound": (Polyhedron(("i",), [ge(i, 5)]), ge(i, 7), False),
    "combination": (Polyhedron(("i", "j"), [ge(i, 1), ge(j, i)]), ge(j, 1), True),
    # an equality needs both of its inequalities
    "equality_from_bounds": (
        Polyhedron(("i",), [ge(i, 3), le(i, 3)]), eq0(i - 3), True
    ),
    "equality_implied_not_present": (
        Polyhedron(("i", "j", "k"), [eq0(i - 1), eq0(j - i), ge(k, 1)]),
        eq0(j - 1),
        True,
    ),
    "equality_one_side_only": (Polyhedron(("i",), [ge(i, 3)]), eq0(i - 3), False),
    # constants are decided on their own
    "constant_true": (Polyhedron(("N",)), ge0(LinExpr.const(3) - 2), True),
    "constant_false": (Polyhedron(("N",)), ge0(ONE - 2), False),
    "constant_false_even_if_empty": (
        Polyhedron(("N",), [ge(N, 4), le(N, 1)]), ge0(ONE - 2), False
    ),
    # loop-bound domination over a parameter domain
    "param_unconstrained": (Polyhedron(("N",)), ge0(N - 3), False),
    "param_domain": (Polyhedron(("N",), [ge(N, 4)]), ge0(N - 3), True),
    "param_domain_shifted": (Polyhedron(("N",), [ge(N, 4)]), ge0(N - 1 - 3), True),
    "param_domain_never": (Polyhedron(("N",), [ge(N, 4)]), ge0(N - (N + 1)), False),
    "identity": (Polyhedron(("N",)), ge0(N - N), True),
    # names outside the dimension tuple are parameters
    "free_parameter": (Polyhedron(("i",), [ge(i, 1), le(i, N)]), ge(N, 1), True),
}


@pytest.mark.parametrize("poly, constraint, expected", CASES.values(), ids=CASES)
def test_implies(poly, constraint, expected):
    assert implies(poly, constraint) is expected
