"""Property-based tests: polyhedral results vs brute force.

Random small conjunctive systems are generated and every solver answer is
checked against enumeration — the strongest guard we have on the
FM/feasibility stack that the dependence analysis trusts.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.poly.constraint import equals, ge, ge0, le
from repro.poly.enumerate import enumerate_points
from repro.poly.fm import project_onto
from repro.poly.integer import integer_feasible, rationally_empty
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

VARS = ("x", "y", "z")


@st.composite
def small_polyhedron(draw):
    """A random conjunctive system over (x, y, z), box-bounded to [-4, 4]."""
    constraints = []
    for v in VARS:
        lo = draw(st.integers(-4, 2))
        hi = draw(st.integers(lo, 4))
        constraints.append(ge(LinExpr.var(v), lo))
        constraints.append(le(LinExpr.var(v), hi))
    n_extra = draw(st.integers(0, 3))
    for _ in range(n_extra):
        coefs = {v: draw(st.integers(-2, 2)) for v in VARS}
        const = draw(st.integers(-4, 4))
        constraints.append(ge0(LinExpr(coefs, const)))
    return Polyhedron(VARS, constraints)


@st.composite
def small_objective(draw):
    coefs = {v: draw(st.integers(-2, 2)) for v in VARS}
    return LinExpr(coefs, draw(st.integers(-2, 2)))


@given(small_polyhedron())
def test_rational_emptiness_is_sound(poly):
    # rationally_empty == True must imply zero integer points.
    if rationally_empty(poly):
        assert next(enumerate_points(poly, {}), None) is None


@given(small_polyhedron())
def test_integer_feasibility_matches_enumeration(poly):
    has_points = next(enumerate_points(poly, {}), None) is not None
    assert integer_feasible(poly, {}) == has_points


@given(small_polyhedron())
def test_projection_is_superset_and_rationally_tight(poly):
    proj = project_onto(poly, ["x", "y"])
    full = {(p["x"], p["y"]) for p in enumerate_points(poly, {})}
    shadow = {(p["x"], p["y"]) for p in enumerate_points(proj, {})}
    # FM gives the rational shadow: every true point survives projection.
    assert full <= shadow


@given(small_polyhedron())
def test_enumeration_is_lexicographic(poly):
    pts = [tuple(p[v] for v in VARS) for p in enumerate_points(poly, {})]
    assert pts == sorted(set(pts))


@given(small_polyhedron(), small_objective())
def test_objective_shadow_bounds_brute_force(poly, objective):
    # Project onto t == objective: the shadow's upper bounds on t bound the
    # integer maximum from above (FM gives the rational shadow).
    widened = poly.with_variables(VARS + ("t",)).with_constraints(
        [equals(LinExpr.var("t"), objective)]
    )
    _, uppers = project_onto(widened, ["t"]).bounds_on("t")
    values = [objective.evaluate(p) for p in enumerate_points(poly, {})]
    if not values or not uppers:
        return
    assert min(u.evaluate({}) for u in uppers) >= max(values)


@given(small_polyhedron())
def test_contains_agrees_with_enumeration_membership(poly):
    pts = {tuple(p[v] for v in VARS) for p in enumerate_points(poly, {})}
    for x in range(-4, 5, 2):
        for y in range(-4, 5, 2):
            for z in range(-4, 5, 2):
                assert ((x, y, z) in pts) == poly.contains({"x": x, "y": y, "z": z})
