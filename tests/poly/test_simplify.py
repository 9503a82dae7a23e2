"""Unit tests for the constraint implication test."""

from repro.poly.constraint import eq0, ge, le
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.poly.simplify import is_implied

i, j, N = LinExpr.var("i"), LinExpr.var("j"), LinExpr.var("N")


class TestIsImplied:
    def test_weaker_bound_implied(self):
        p = Polyhedron(("i",), [ge(i, 5)])
        assert is_implied(p, ge(i, 3))
        assert not is_implied(p, ge(i, 7))

    def test_combination_implied(self):
        p = Polyhedron(("i", "j"), [ge(i, 1), ge(j, i)])
        assert is_implied(p, ge(j, 1))

    def test_equality_implication(self):
        p = Polyhedron(("i",), [ge(i, 3), le(i, 3)])
        assert is_implied(p, eq0(i - 3))
