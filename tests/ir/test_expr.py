"""Unit tests for expression nodes."""

import pytest

from repro.errors import IRError
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cmp,
    Const,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Select,
    UnOp,
    VarRef,
    as_expr,
    free_names,
    map_expr,
    walk_expr,
)


class TestConstruction:
    def test_const_rejects_bool(self):
        with pytest.raises(TypeError):
            Const(True)

    def test_varref_rejects_empty(self):
        with pytest.raises(TypeError):
            VarRef("")

    def test_arrayref_needs_indices(self):
        with pytest.raises(TypeError):
            ArrayRef("A", [])

    def test_binop_validates_op(self):
        with pytest.raises(ValueError):
            BinOp("%", Const(1), Const(2))

    def test_call_validates_intrinsic(self):
        with pytest.raises(ValueError):
            Call("sin", [Const(1)])

    def test_cmp_validates_op(self):
        with pytest.raises(ValueError):
            Cmp("=", Const(1), Const(2))

    def test_coercion_of_numbers(self):
        e = VarRef("i") + 1
        assert isinstance(e.rhs, Const)

    def test_as_expr_rejects_strings(self):
        with pytest.raises(TypeError):
            as_expr("i")

    def test_immutability(self):
        e = VarRef("i")
        with pytest.raises(AttributeError):
            e.name = "j"


class TestOperators:
    def test_arith_sugar(self):
        i, j = VarRef("i"), VarRef("j")
        e = (i + j) * 2 - 1
        assert isinstance(e, BinOp) and e.op == "-"

    def test_radd_rmul(self):
        e = 2 * VarRef("i")
        assert isinstance(e.lhs, Const)

    def test_division(self):
        e = VarRef("i") / 2
        assert e.op == "/"

    def test_negation(self):
        assert isinstance(-VarRef("i"), UnOp)


class TestStructuralEquality:
    def test_equal_trees(self):
        a = VarRef("i") + VarRef("j")
        b = VarRef("i") + VarRef("j")
        assert a == b and hash(a) == hash(b)

    def test_order_matters(self):
        assert VarRef("i") + VarRef("j") != VarRef("j") + VarRef("i")

    def test_select_equality(self):
        c = Cmp("<", VarRef("i"), Const(3))
        assert Select(c, Const(1), Const(2)) == Select(c, Const(1), Const(2))

    def test_int_float_consts_distinct(self):
        assert Const(1) != Const(1.0)


class TestTraversal:
    def test_walk_counts_nodes(self):
        e = ArrayRef("A", [VarRef("i") + 1])
        kinds = [type(n).__name__ for n in walk_expr(e)]
        assert kinds == ["ArrayRef", "BinOp", "VarRef", "Const"]

    def test_free_names_excludes_arrays(self):
        e = ArrayRef("A", [VarRef("i")]) + VarRef("x")
        assert free_names(e) == {"i", "x"}

    def test_map_expr_renames(self):
        e = ArrayRef("A", [VarRef("i")])

        def rn(node):
            if isinstance(node, VarRef) and node.name == "i":
                return VarRef("k")
            return node

        out = map_expr(e, rn)
        assert out == ArrayRef("A", [VarRef("k")])

    def test_map_expr_covers_logicals(self):
        e = LogicalOr([LogicalNot(Cmp("<", VarRef("i"), Const(2))),
                       LogicalAnd([Cmp("==", VarRef("j"), Const(1)),
                                   Cmp(">", VarRef("i"), Const(0))])])
        assert map_expr(e, lambda n: n) == e

    def test_logical_and_flattens(self):
        # A one-operand conjunction would print as its bare operand and
        # read back unequal, so it is rejected.
        with pytest.raises(IRError, match="LogicalAnd needs at least two operands"):
            LogicalAnd([Cmp("<", VarRef("i"), Const(1))])
        inner = LogicalAnd([Cmp("<", VarRef("i"), Const(1)), Cmp("<", VarRef("j"), Const(1))])
        outer = LogicalAnd([inner, Cmp(">", VarRef("j"), Const(2))])
        assert len(outer.args) == 3

    @pytest.mark.parametrize("cls", [LogicalAnd, LogicalOr])
    @pytest.mark.parametrize("count", [0, 1])
    def test_logical_needs_two_operands(self, cls, count):
        with pytest.raises(IRError, match=f"{cls.__name__} needs at least two operands"):
            cls([Cmp("<", VarRef("i"), Const(k)) for k in range(count)])
