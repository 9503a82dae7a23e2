"""Unit tests for the mini-Fortran parser."""

import pytest

from repro.errors import IRError, ParseError
from repro.frontend import parse_program
from repro.ir.expr import BinOp, Call, Cmp, Const, LogicalAnd, LogicalOr, Select, UnOp
from repro.ir.stmt import Assign, If, Loop


def parse_body(body: str, decls: str = "param N\n  real A(N)\n  real x") -> tuple:
    src = f"program t\n  {decls}\n  output A\nbegin\n{body}\nend\n"
    return parse_program(src).body


class TestStructure:
    def test_program_name_and_decls(self):
        p = parse_program(
            """
            program demo
              param N, M
              real A(N, M), B(N)
              integer m
              real t
              output A, B
            begin
              t = 0.0
            end
            """
        )
        assert p.name == "demo"
        assert p.params == ("N", "M")
        assert p.array("A").rank == 2
        assert p.scalar("m").dtype == "i8"
        assert p.outputs == ("A", "B")

    def test_do_loop_with_step(self):
        (stmt,) = parse_body("do i = 1, N, 2\n A(i) = 0.0\n end do")
        assert isinstance(stmt, Loop) and stmt.step == Const(2)

    def test_nested_loops(self):
        (stmt,) = parse_body(
            "do i = 1, N\n do j = i, N\n x = 1.0\n end do\n end do",
        )
        assert isinstance(stmt.body[0], Loop)

    def test_if_else(self):
        (stmt,) = parse_body(
            "if (x .GT. 0.0) then\n x = 1.0\n else\n x = 2.0\n end if"
        )
        assert isinstance(stmt, If) and stmt.orelse

    def test_condition_conjunction(self):
        (stmt,) = parse_body("if (x > 0.0 .AND. x < 1.0) then\n x = 0.5\n end if")
        assert isinstance(stmt.cond, LogicalAnd)

    def test_condition_disjunction_parens(self):
        (stmt,) = parse_body(
            "if ((x > 1.0 .OR. x < 0.0) .AND. x != 0.5) then\n x = 0.0\n end if"
        )
        assert isinstance(stmt.cond, LogicalAnd)
        assert isinstance(stmt.cond.args[0], LogicalOr)


class TestExpressions:
    def test_precedence(self):
        (stmt,) = parse_body("x = 1.0 + 2.0 * 3.0")
        assert isinstance(stmt.value, BinOp) and stmt.value.op == "+"

    def test_parenthesised_group(self):
        (stmt,) = parse_body("x = (1.0 + 2.0) * 3.0")
        assert stmt.value.op == "*"

    def test_unary_minus(self):
        (stmt,) = parse_body("x = -x + 1.0")
        assert stmt.value.op == "+"

    def test_negative_literal_and_negated_group(self):
        (lit, neg) = parse_body("x = -2\n x = -(2)")
        assert lit.value == Const(-2)
        assert neg.value == UnOp("-", Const(2))

    def test_merge_is_select(self):
        (stmt,) = parse_body("x = merge(A(1), x + 1.0, x .GE. 0.0 .OR. x < -1.0)")
        assert isinstance(stmt.value, Select)
        assert stmt.value.if_true.name == "A"
        assert isinstance(stmt.value.if_false, BinOp)
        assert isinstance(stmt.value.cond, LogicalOr)
        assert isinstance(stmt.value.cond.args[0], Cmp)

    def test_intrinsics(self):
        (stmt,) = parse_body("x = sqrt(abs(x))")
        assert isinstance(stmt.value, Call) and stmt.value.func == "sqrt"

    def test_min_max_multi_arg(self):
        (stmt,) = parse_body("x = min(x, 1.0, 2.0)")
        assert len(stmt.value.args) == 3

    def test_array_subscript_expressions(self):
        (stmt,) = parse_body("A(i*2 - 1) = 0.0", decls="param N\n real A(N)\n integer i")
        assert isinstance(stmt, Assign)


class TestErrors:
    def test_missing_then(self):
        with pytest.raises(ParseError):
            parse_body("if (x > 0.0)\n x = 1.0\n end if")

    def test_missing_end_do(self):
        with pytest.raises(ParseError):
            parse_program(
                "program p\n param N\n real A(N)\nbegin\n do i = 1, N\n A(i) = 0.0\nend\n"
            )

    def test_garbage_declaration(self):
        with pytest.raises(ParseError):
            parse_program("program p\n banana N\nbegin\nend\n")

    def test_semantic_undeclared_array(self):
        with pytest.raises(IRError):
            parse_program(
                "program p\n param N\n real A(N)\nbegin\n do i = 1, N\n B(i) = 0.0\n end do\nend\n"
            )

    def test_plain_expression_not_condition(self):
        with pytest.raises(ParseError):
            parse_body("if (x) then\n x = 1.0\n end if")

    @pytest.mark.parametrize(
        "decls,line,col",
        [
            ("param N\n real A(N)\n real A(2)", 4, 7),
            ("param N\n real A(N)\n real x, x", 4, 10),
            ("param N\n real A(N)\n integer N", 4, 10),
        ],
        ids=["array", "scalar", "param"],
    )
    def test_repeated_declaration(self, decls, line, col):
        src = f"program p\n {decls}\nbegin\n A(1) = 0.0\nend\n"
        with pytest.raises(ParseError, match="declared twice") as err:
            parse_program(src)
        assert (err.value.line, err.value.col) == (line, col)

    def test_loop_shadowing_param_rejected(self):
        # Extents would read the param while the body reads the loop.
        src = "program p\n param N\n real A(N)\nbegin\n do N = 1, 3\n A(N) = 2.0\n end do\nend\n"
        with pytest.raises(IRError, match="loop 'do N' shadows parameter 'N'"):
            parse_program(src)


class TestRoundtrip:
    def test_kernels_reparse_from_pretty_like_source(self):
        # A Cholesky-like text written by hand in paper notation.
        src = """
        program chol
          param N
          real A(N, N)
          output A
        begin
          do k = 1, N
            A(k,k) = sqrt(A(k,k))
            do i = k + 1, N
              A(i,k) = A(i,k) / A(k,k)
            end do
            do j = k + 1, N
              do i = j, N
                A(i,j) = A(i,j) - A(i,k) * A(j,k)
              end do
            end do
          end do
        end
        """
        p = parse_program(src)
        from repro.kernels import cholesky

        import numpy as np
        from repro.exec import run_compiled

        params = {"N": 8}
        inputs = cholesky.make_inputs(params)
        mine = run_compiled(p, params, inputs)
        ref = cholesky.reference(params, inputs)
        assert np.allclose(mine.arrays["A"], ref["A"])
