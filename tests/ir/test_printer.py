"""Unit tests for the FORTRAN-flavoured pretty printer."""

from repro.ir.builder import (
    and_,
    assign,
    ceq,
    cgt,
    fabs,
    idx,
    if_,
    loop,
    not_,
    or_,
    sqrt,
    sym,
    val,
)
from repro.ir.expr import Select
from repro.ir.printer import expr_str, pretty, pretty_stmt
from repro.ir.program import ArrayDecl, Program, ScalarDecl

i, j, k, N = sym("i"), sym("j"), sym("k"), sym("N")


class TestExprPrinting:
    def test_precedence_no_spurious_parens(self):
        assert expr_str(i + j * k) == "i + j*k"

    def test_parens_where_needed(self):
        assert expr_str((i + j) * k) == "(i + j)*k"

    def test_right_associativity_of_minus(self):
        assert expr_str(i - (j - k)) == "i - (j - k)"
        assert expr_str((i - j) - k) == "i - j - k"

    def test_division_denominator(self):
        assert expr_str(i / (j * k)) == "i/(j*k)"

    def test_array_ref(self):
        assert expr_str(idx("A", i, j - 1)) == "A(i,j - 1)"

    def test_fortran_comparisons(self):
        assert expr_str(ceq(i, k + 1)) == "i .EQ. k + 1"
        assert expr_str(cgt(fabs(sym("d")), sym("t"))) == "abs(d) .GT. t"

    def test_logicals(self):
        text = expr_str(and_(ceq(i, 1), or_(ceq(j, 2), ceq(j, 3))))
        assert ".AND." in text and ".OR." in text and "(" in text

    def test_not(self):
        assert expr_str(not_(ceq(i, 1))) == ".NOT. i .EQ. 1"

    def test_sqrt(self):
        assert expr_str(sqrt(i)) == "sqrt(i)"

    def test_select_as_merge(self):
        e = Select(ceq(i, 1), idx("H", i), idx("A", i))
        assert expr_str(e) == "merge(H(i), A(i), i .EQ. 1)"

    def test_negative_literal(self):
        assert expr_str(val(-2) * i) == "(-2)*i"

    def test_negated_literal(self):
        assert expr_str(-val(2)) == "-(2)"
        assert expr_str(-val(-2)) == "-(-2)"

    def test_right_nested_same_precedence(self):
        assert expr_str(i + (j + k)) == "i + (j + k)"
        assert expr_str(i * (j * k)) == "i*(j*k)"
        assert expr_str((i + j) + k) == "i + j + k"


class TestProgramPrinting:
    def test_header_is_frontend_grammar(self):
        p = Program(
            "p", ("N",), (ArrayDecl("A", (N,)), ArrayDecl("P", (N,), "i8")),
            (ScalarDecl("x"), ScalarDecl("m", "i8")),
            (assign("x", 0.0),), ("A",),
        )
        assert pretty(p).splitlines() == [
            "program p",
            "  param N",
            "  real A(N)",
            "  integer P(N)",
            "  real x",
            "  integer m",
            "  output A",
            "begin",
            "  x = 0.0",
            "end",
        ]


class TestStmtPrinting:
    def test_loop_block(self):
        text = pretty_stmt(loop("i", 1, N, [assign("x", 0.0)]))
        assert text.splitlines() == ["do i = 1, N", "  x = 0.0", "end do"]

    def test_loop_with_step(self):
        text = pretty_stmt(loop("i", 1, N, [assign("x", 0.0)], step=4))
        assert text.startswith("do i = 1, N, 4")

    def test_if_else(self):
        text = pretty_stmt(if_(ceq(i, 1), assign("x", 1), assign("x", 2)))
        lines = text.splitlines()
        assert lines[0] == "if (i .EQ. 1) then"
        assert "else" in lines
        assert lines[-1] == "end if"
