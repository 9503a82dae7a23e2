"""Property-based tests: polyhedral results vs brute force.

Random small conjunctive systems are generated and every solver answer is
checked against enumeration — the strongest guard we have on the
FM/feasibility stack that the dependence analysis trusts. A system may
hold equalities with coefficients -2..2 (so Fourier–Motzkin substitutes
through non-unit coefficients) and terms in a parameter ``N`` bounded to
[4, 6] (admissible sizes, at or above ``PARAM_LO``), so emptiness is asked
with the parameter existential.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, strategies as st

from repro.poly import fm
from repro.poly.constraint import Constraint, eq0, equals, ge, ge0, le, normal_row
from repro.poly.enumerate import enumerate_points
from repro.poly.fm import project_onto
from repro.poly.integer import (
    PARAM_LO,
    PARAM_WIDTH,
    check_feasibility,
    integer_feasible,
    rationally_empty,
)
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

VARS = ("x", "y", "z")
BOX = range(-4, 5)
N_VALUES = range(4, 7)


@st.composite
def small_polyhedron(draw):
    """A random conjunctive system over (x, y, z), box-bounded to [-4, 4],
    with parameter N in [4, 6], up to three extra inequalities and up to
    two equalities."""
    n = LinExpr.var("N")
    constraints = [ge(n, N_VALUES[0]), le(n, N_VALUES[-1])]
    for v in VARS:
        lo = draw(st.integers(-4, 2))
        hi = draw(st.integers(lo, 4))
        constraints.append(ge(LinExpr.var(v), lo))
        constraints.append(le(LinExpr.var(v), hi))

    def draw_expr():
        coefs = {v: draw(st.integers(-2, 2)) for v in VARS}
        coefs["N"] = draw(st.integers(-1, 1))
        return LinExpr(coefs, draw(st.integers(-4, 4)))

    for _ in range(draw(st.integers(0, 3))):
        constraints.append(ge0(draw_expr()))
    for _ in range(draw(st.integers(0, 2))):
        constraints.append(eq0(draw_expr()))
    return Polyhedron(VARS, constraints)


@st.composite
def small_objective(draw):
    coefs = {v: draw(st.integers(-2, 2)) for v in VARS}
    return LinExpr(coefs, draw(st.integers(-2, 2)))


def brute_points(poly: Polyhedron, n: int) -> set[tuple[int, ...]]:
    """Every integer point of *poly* at N = n, by testing the whole box."""
    return {
        p
        for p in product(BOX, BOX, BOX)
        if poly.contains({"x": p[0], "y": p[1], "z": p[2], "N": n})
    }


def points(poly: Polyhedron, n: int) -> list[dict[str, int]]:
    return list(enumerate_points(poly, {"N": n}))


@given(small_polyhedron())
def test_rational_emptiness_is_sound(poly):
    # rationally_empty == True must imply zero integer points for every N.
    if rationally_empty(poly):
        assert all(not brute_points(poly, n) for n in N_VALUES)


@given(small_polyhedron())
def test_integer_feasibility_matches_enumeration(poly):
    per_n = {n: bool(brute_points(poly, n)) for n in N_VALUES}
    for n in N_VALUES:
        assert integer_feasible(poly, {"N": n}) == per_n[n]
    # Parameter open: rational emptiness, then a witness search. Only a
    # rationally feasible set without a witness may get the conservative
    # (indecisive) "feasible".
    result = check_feasibility(poly)
    if result.decisive:
        assert result.feasible == any(per_n.values())
        # A witness probes only admissible sizes.
        if result.witness is not None:
            assert PARAM_LO <= result.witness["N"] <= PARAM_LO + PARAM_WIDTH
    else:
        assert result.feasible and not any(per_n.values())


@given(small_polyhedron())
def test_enumeration_is_lexicographic(poly):
    for n in N_VALUES:
        got = [tuple(p[v] for v in VARS) for p in points(poly, n)]
        assert got == sorted(brute_points(poly, n))


@given(small_polyhedron())
def test_projection_is_superset_and_rationally_tight(poly):
    proj = project_onto(poly, ["x", "y"])
    for n in N_VALUES:
        full = {(x, y) for x, y, _ in brute_points(poly, n)}
        shadow = {(p["x"], p["y"]) for p in points(proj, n)}
        # FM gives the rational shadow: every true point survives projection.
        assert full <= shadow


@given(small_polyhedron())
def test_projection_constraints_are_normalised(poly):
    # Each row Fourier–Motzkin returns is already in the constraints'
    # normal form, so building the projection's constraints changes none.
    for keep in (["x", "y"], ["z"], []):
        drop = [v for v in poly.variables if v not in keep]
        for row in fm._project(fm._rows(poly), poly.variables, drop):
            assert normal_row(*row) == row


@given(
    small_polyhedron(),
    st.dictionaries(st.sampled_from(VARS + ("N",)), st.sampled_from(VARS + ("N", "w"))),
)
def test_renamed_constraints_are_normal(poly, mapping):
    # A rename skips normalisation unless variables merge or an
    # equality's sign moves; the result equals a full normalisation,
    # term order included.
    for c in poly.constraints:
        renamed = c.rename(mapping)
        fresh = Constraint(c.expr.rename(mapping), c.kind)
        assert renamed == fresh
        assert list(renamed.expr.terms_items()) == list(fresh.expr.terms_items())
        assert renamed.fingerprint_text() == fresh.fingerprint_text()


@given(small_polyhedron(), small_objective())
def test_objective_shadow_bounds_brute_force(poly, objective):
    # Project onto t == objective: the shadow's upper bounds on t bound the
    # integer maximum from above (FM gives the rational shadow).
    widened = poly.with_variables(VARS + ("t",)).with_constraints(
        [equals(LinExpr.var("t"), objective)]
    )
    _, uppers = project_onto(widened, ["t"]).bounds_on("t")
    for n in N_VALUES:
        values = [
            objective.evaluate(dict(zip(VARS, p))) for p in brute_points(poly, n)
        ]
        if values and uppers:
            assert min(u.evaluate({"N": n}) for u in uppers) >= max(values)


@given(small_polyhedron())
def test_contains_agrees_with_enumeration_membership(poly):
    for n in N_VALUES:
        pts = {tuple(p[v] for v in VARS) for p in points(poly, n)}
        for x in range(-4, 5, 2):
            for y in range(-4, 5, 2):
                for z in range(-4, 5, 2):
                    env = {"x": x, "y": y, "z": z, "N": n}
                    assert ((x, y, z) in pts) == poly.contains(env)
