"""Unit tests for the Polyhedron container."""

import pytest

from repro.errors import PolyhedronError
from repro.poly.constraint import eq0, ge, ge0, le
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

i, j, N = LinExpr.var("i"), LinExpr.var("j"), LinExpr.var("N")


def triangle() -> Polyhedron:
    return Polyhedron(("i", "j"), [ge(i, 1), le(i, N), ge(j, i), le(j, N)])


class TestBasics:
    def test_duplicate_dims_rejected(self):
        with pytest.raises(PolyhedronError):
            Polyhedron(("i", "i"))

    def test_trivially_true_constraints_dropped(self):
        p = Polyhedron(("i",), [ge0(LinExpr.const(3)), ge(i, 0)])
        assert len(p.constraints) == 1

    def test_duplicate_constraints_deduped(self):
        p = Polyhedron(("i",), [ge(i, 0), ge(i, 0)])
        assert len(p.constraints) == 1

    def test_parameters(self):
        assert triangle().parameters() == {"N"}

    def test_contains(self):
        p = triangle()
        assert p.contains({"i": 1, "j": 2, "N": 3})
        assert not p.contains({"i": 2, "j": 1, "N": 3})

    def test_trivially_empty(self):
        p = Polyhedron(("i",), [ge0(LinExpr.const(-1))])
        assert p.is_trivially_empty()


class TestRebuilding:
    def test_with_constraints(self):
        p = triangle().with_constraints([ge(j, 2)])
        assert not p.contains({"i": 1, "j": 1, "N": 3})

    @staticmethod
    def intersect(p, q):
        """Conjunction of two polyhedra over the same dimensions."""
        if p.variables != q.variables:
            raise PolyhedronError(f"dimension mismatch: {p.variables} vs {q.variables}")
        return p.with_constraints(q.constraints)

    def test_intersect_checks_dims(self):
        with pytest.raises(PolyhedronError):
            self.intersect(triangle(), Polyhedron(("i",)))

    def test_intersect(self):
        q = Polyhedron(("i", "j"), [eq0(i - j)])
        p = self.intersect(triangle(), q)
        assert p.contains({"i": 2, "j": 2, "N": 3})
        assert not p.contains({"i": 1, "j": 2, "N": 3})

    def test_substitute_removes_dim(self):
        p = triangle().substitute({"j": i})
        assert p.variables == ("i",)
        assert p.contains({"i": 2, "N": 3})

    def test_rename(self):
        p = triangle().rename({"i": "x"})
        assert p.variables == ("x", "j")

    def test_equality_and_hash(self):
        assert triangle() == triangle()
        assert hash(triangle()) == hash(triangle())


class TestBounds:
    def test_bounds_on(self):
        lowers, uppers = triangle().bounds_on("j")
        assert i in lowers and N in uppers

    def test_equality_contributes_both_sides(self):
        p = Polyhedron(("i",), [eq0(i - N)])
        lowers, uppers = p.bounds_on("i")
        assert lowers == [N] and uppers == [N]

    def test_str_contains_constraints(self):
        assert ">= 0" in str(triangle())
