"""Unit tests for constraint normalisation and the comparison helpers."""

import pytest

from repro.poly.constraint import Constraint, Kind, eq0, equals, ge, ge0, le, lt
from repro.poly.linexpr import LinExpr

i = LinExpr.var("i")
j = LinExpr.var("j")
N = LinExpr.var("N")


class TestNormalisation:
    def test_gcd_division(self):
        c = ge0(i * 2 - 4)
        assert c.expr == i - 2

    def test_integer_tightening_floors_constant(self):
        # 2i - 3 >= 0  over integers means i >= 2, i.e. i - 2 >= 0.
        c = ge0(i * 2 - 3)
        assert c.expr == i - 2

    def test_fractions_scaled_to_integers(self):
        from fractions import Fraction

        c = ge0(i * Fraction(1, 2) - Fraction(3, 2))
        assert c.expr == i - 3
        assert type(c.expr.coeff("i")) is int and type(c.expr.constant) is int

    def test_equality_sign_canonical(self):
        a = eq0(i - j)
        b = eq0(j - i)
        assert a == b

    def test_equality_without_integer_solution_kept(self):
        c = eq0(i * 2 - 1)
        assert c.expr == i * 2 - 1


class TestTrivial:
    def test_trivially_true(self):
        assert ge0(LinExpr.const(0)).is_trivial_true()
        assert eq0(LinExpr.const(0)).is_trivial_true()

    def test_trivially_false(self):
        assert ge0(LinExpr.const(-1)).is_trivial_false()
        assert eq0(LinExpr.const(2)).is_trivial_false()

    def test_non_constant_neither(self):
        c = ge0(i)
        assert not c.is_trivial_true() and not c.is_trivial_false()


class TestHelpers:
    def test_le(self):
        assert le(i, N).satisfied({"i": 3, "N": 3})
        assert not le(i, N).satisfied({"i": 4, "N": 3})

    def test_lt_strict_integer(self):
        assert not lt(i, N).satisfied({"i": 3, "N": 3})
        assert lt(i, N).satisfied({"i": 2, "N": 3})

    def test_ge_with_scalar(self):
        assert ge(i, 2).satisfied({"i": 2})

    def test_equals(self):
        assert equals(i + 1, j).satisfied({"i": 2, "j": 3})

    def test_substitute(self):
        c = ge(i, j).substitute({"j": LinExpr.const(1)})
        assert c.satisfied({"i": 1})

    def test_rename(self):
        c = ge(i, j).rename({"i": "x"})
        assert "x" in c.variables() and "i" not in c.variables()

    def test_kind_exposed(self):
        assert ge0(i).kind is Kind.GE
        assert eq0(i).kind is Kind.EQ

    def test_requires_linexpr(self):
        with pytest.raises(TypeError):
            Constraint("i >= 0", Kind.GE)
