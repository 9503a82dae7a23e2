"""Unit tests for IR <-> LinExpr/constraint bridging."""

import pytest

from repro.errors import NotAffineError
from repro.ir.affine import (
    cond_to_constraints,
    constraint_to_cond,
    constraints_to_cond,
    expr_to_linexpr,
    is_affine,
    is_affine_condition,
    linexpr_to_expr,
)
from repro.ir.builder import and_, ceq, cge, cgt, cle, clt, cne, idx, or_, sym, val
from repro.ir.builder import fabs
from repro.poly.constraint import ge
from repro.poly.linexpr import LinExpr

i, j, N = sym("i"), sym("j"), sym("N")


class TestExprToLinExpr:
    def test_linear_combination(self):
        lin = expr_to_linexpr(i * 2 + j - 3)
        assert lin.coeff("i") == 2 and lin.coeff("j") == 1 and lin.constant == -3

    def test_constant_times_var_both_orders(self):
        assert expr_to_linexpr(2 * i) == expr_to_linexpr(i * 2)

    def test_division_by_constant(self):
        lin = expr_to_linexpr((i * 4) / 2)
        assert lin.coeff("i") == 2

    def test_negation(self):
        assert expr_to_linexpr(-i).coeff("i") == -1

    def test_product_of_vars_rejected(self):
        with pytest.raises(NotAffineError):
            expr_to_linexpr(i * j)

    def test_float_rejected(self):
        with pytest.raises(NotAffineError):
            expr_to_linexpr(i + val(0.5))

    def test_array_ref_rejected(self):
        with pytest.raises(NotAffineError):
            expr_to_linexpr(idx("A", i))

    def test_intrinsic_rejected(self):
        assert not is_affine(fabs(i))


class TestLinExprToExpr:
    def test_roundtrip(self):
        for lin in (LinExpr({"i": 1, "j": -2}, 3), LinExpr({}, 0), LinExpr({"i": -1}, -4)):
            assert expr_to_linexpr(linexpr_to_expr(lin)) == lin

    def test_fractional_rejected(self):
        with pytest.raises(NotAffineError):
            linexpr_to_expr(LinExpr({"i": 1}) / 2)


class TestConditions:
    def test_comparisons(self):
        for builder, sat in [
            (cle(i, N), {"i": 3, "N": 3}),
            (clt(i, N), {"i": 2, "N": 3}),
            (cge(i, N), {"i": 3, "N": 3}),
            (cgt(i, N), {"i": 4, "N": 3}),
            (ceq(i, N), {"i": 3, "N": 3}),
        ]:
            cs = cond_to_constraints(builder)
            assert all(c.satisfied(sat) for c in cs)

    def test_conjunction_concatenates(self):
        cs = cond_to_constraints(and_(cge(i, 1), cle(i, N)))
        assert len(cs) == 2

    def test_ne_rejected(self):
        with pytest.raises(NotAffineError):
            cond_to_constraints(cne(i, N))

    def test_or_rejected(self):
        assert not is_affine_condition(or_(ceq(i, 1), ceq(i, 2)))

    def test_nonaffine_operand_rejected(self):
        assert not is_affine_condition(cgt(fabs(i), val(0)))


class TestConstraintToCond:
    def test_readable_rearrangement(self):
        cond = constraint_to_cond(ge(LinExpr.var("i"), LinExpr.var("k") + 1))
        assert str(cond) == "i .GE. k + 1"

    def test_equality(self):
        from repro.poly.constraint import equals

        cond = constraint_to_cond(equals(LinExpr.var("i"), LinExpr.var("k")))
        assert ".EQ." in str(cond)

    def test_roundtrip_semantics(self):
        c = ge(LinExpr.var("i") * 2, LinExpr.var("N") - 3)
        cond = constraint_to_cond(c)
        back = cond_to_constraints(cond)
        for env in ({"i": 1, "N": 5}, {"i": 0, "N": 5}, {"i": 3, "N": 4}):
            assert all(b.satisfied(env) for b in back) == c.satisfied(env)

    def test_constraints_to_cond_empty(self):
        assert constraints_to_cond([]) is None
