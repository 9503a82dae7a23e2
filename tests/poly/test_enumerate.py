"""Unit tests for integer-point enumeration."""

import pytest

from repro.errors import UnboundedError
from repro.poly.constraint import eq0, ge, le
from repro.poly.enumerate import enumerate_points
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

i, j, N = LinExpr.var("i"), LinExpr.var("j"), LinExpr.var("N")


def triangle():
    return Polyhedron(("i", "j"), [ge(i, 1), le(i, N), ge(j, i), le(j, N)])


class TestEnumerate:
    def test_triangle_count(self):
        assert len(list(enumerate_points(triangle(), {"N": 4}))) == 10

    def test_lexicographic_order(self):
        pts = list(enumerate_points(triangle(), {"N": 3}))
        tuples = [(p["i"], p["j"]) for p in pts]
        assert tuples == sorted(tuples)

    def test_empty_range(self):
        assert list(enumerate_points(triangle(), {"N": 0})) == []

    def test_limit(self):
        pts = list(enumerate_points(triangle(), {"N": 5}, limit=3))
        assert len(pts) == 3

    def test_missing_param_raises(self):
        with pytest.raises(UnboundedError):
            list(enumerate_points(triangle()))

    def test_unbounded_raises(self):
        p = Polyhedron(("i",), [ge(i, 1)])
        with pytest.raises(UnboundedError):
            list(enumerate_points(p, {}))

    def test_zero_dims(self):
        p = Polyhedron((), [ge(N, 2)])
        assert list(enumerate_points(p, {"N": 3})) == [{}]
        assert list(enumerate_points(p, {"N": 1})) == []

    def test_equality_pins_value(self):
        p = Polyhedron(("i", "j"), [ge(i, 1), le(i, 3), eq0(j - i)])
        pts = [(p_["i"], p_["j"]) for p_ in enumerate_points(p, {})]
        assert pts == [(1, 1), (2, 2), (3, 3)]

