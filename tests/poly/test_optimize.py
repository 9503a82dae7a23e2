"""Unit tests for affine-inequality proofs."""

from repro.poly.constraint import ge
from repro.poly.linexpr import LinExpr
from repro.poly.optimize import affine_ge
from repro.poly.polyhedron import Polyhedron

N = LinExpr.var("N")


class TestAffineGe:
    def test_constant(self):
        assert affine_ge(LinExpr.const(3), LinExpr.const(2))
        assert not affine_ge(LinExpr.const(1), LinExpr.const(2))

    def test_without_domain_unprovable(self):
        assert not affine_ge(N, LinExpr.const(3))

    def test_with_domain(self):
        dom = Polyhedron(("N",), [ge(N, 4)])
        assert affine_ge(N, LinExpr.const(3), dom)
        assert affine_ge(N - 1, LinExpr.const(3), dom)
        assert not affine_ge(N, N + 1, dom)

    def test_identity(self):
        assert affine_ge(N, N)

