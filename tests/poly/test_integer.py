"""Unit tests for integer feasibility."""

from repro.poly.constraint import eq0, ge, le
from repro.poly.integer import (
    PARAM_LO,
    check_feasibility,
    find_integer_point,
    integer_feasible,
    rationally_empty,
)
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

i, j, N = LinExpr.var("i"), LinExpr.var("j"), LinExpr.var("N")


class TestRationallyEmpty:
    def test_contradiction(self):
        p = Polyhedron(("i",), [ge(i, 2), le(i, 1)])
        assert rationally_empty(p)

    def test_parametric_contradiction(self):
        # i in [N+1, N] is empty for every N.
        p = Polyhedron(("i",), [ge(i, N + 1), le(i, N)])
        assert rationally_empty(p)

    def test_nonempty(self):
        p = Polyhedron(("i",), [ge(i, 1), le(i, N)])
        assert not rationally_empty(p)


class TestWitnessSearch:
    def test_fixed_params(self):
        p = Polyhedron(("i", "j"), [ge(i, 1), le(i, N), ge(j, i + 1), le(j, N)])
        pt = find_integer_point(p, {"N": 3})
        assert pt is not None and pt["j"] > pt["i"]

    def test_fixed_params_infeasible(self):
        p = Polyhedron(("i", "j"), [ge(i, 1), le(i, N), ge(j, i + 1), le(j, N)])
        assert find_integer_point(p, {"N": 1}) is None

    def test_probed_params(self):
        p = Polyhedron(("i",), [ge(i, 2), le(i, N - 1)])
        pt = find_integer_point(p)
        assert pt is not None and 2 <= pt["i"] <= pt["N"] - 1

    def test_param_lo_respected(self):
        # needs N >= 6 to have a point; the probe window from PARAM_LO = 4
        # reaches it
        p = Polyhedron(("i",), [ge(i, 6), le(i, N)])
        assert integer_feasible(p)
        # Points only below the floor are never witnessed: the answer is
        # the conservative, indecisive "feasible".
        below = Polyhedron(("i",), [ge(i, 1), le(i, N), le(N, PARAM_LO - 1)])
        res = check_feasibility(below)
        assert res.feasible and not res.decisive and res.witness is None

    def test_decisive_empty(self):
        p = Polyhedron(("i",), [ge(i, N + 1), le(i, N)])
        res = check_feasibility(p)
        assert not res.feasible and res.decisive

    def test_witness_satisfies(self):
        p = Polyhedron(("i", "j"), [eq0(i - j), ge(i, 1), le(i, N)])
        res = check_feasibility(p)
        assert res.feasible and res.witness is not None
        assert p.contains(res.witness)


class TestIntegerOnlyCases:
    def test_even_odd_gap(self):
        # 2i == 2j + 1 has no integer solution although rationally feasible.
        p = Polyhedron(
            ("i", "j"),
            [eq0(i * 2 - j * 2 - 1), ge(i, 0), le(i, 10), ge(j, 0), le(j, 10)],
        )
        assert not integer_feasible(p, {})

    def test_scaled_equality_feasible(self):
        p = Polyhedron(("i",), [eq0(i * 3 - 6)])
        assert integer_feasible(p, {})
