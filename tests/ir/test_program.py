"""Unit tests for Program declarations and validation."""

import pytest

from repro.errors import IRError
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl

N = sym("N")


def simple() -> Program:
    body = loop("i", 1, N, [assign(idx("A", sym("i")), 0.0)])
    return Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (body,))


class TestDecls:
    def test_array_needs_extent(self):
        with pytest.raises(IRError):
            ArrayDecl("A", ())

    def test_array_dtype_checked(self):
        with pytest.raises(IRError):
            ArrayDecl("A", (N,), "f16")

    def test_scalar_dtype_checked(self):
        with pytest.raises(IRError):
            ScalarDecl("x", "bad")

    def test_rank(self):
        assert ArrayDecl("A", (N, N)).rank == 2


class TestValidation:
    def test_valid_program(self):
        assert simple().name == "p"

    def test_duplicate_names_rejected(self):
        with pytest.raises(IRError):
            Program("p", ("A",), (ArrayDecl("A", (N,)),), (), ())

    def test_undeclared_array_rejected(self):
        body = loop("i", 1, N, [assign(idx("B", sym("i")), 0.0)])
        with pytest.raises(IRError):
            Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (body,))

    def test_rank_mismatch_rejected(self):
        body = loop("i", 1, N, [assign(idx("A", sym("i"), sym("i")), 0.0)])
        with pytest.raises(IRError):
            Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (body,))

    def test_undeclared_scalar_rejected(self):
        body = loop("i", 1, N, [assign(idx("A", sym("i")), sym("z"))])
        with pytest.raises(IRError):
            Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (body,))

    def test_array_assigned_as_scalar_rejected(self):
        body = loop("i", 1, N, [assign("A", 1.0)])
        with pytest.raises(IRError, match="array 'A' used as a scalar"):
            Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (body,))

    def test_array_read_as_scalar_rejected(self):
        body = loop("i", 1, N, [assign("x", sym("A") + 1.0)])
        with pytest.raises(IRError, match="array 'A' used as a scalar"):
            Program("p", ("N",), (ArrayDecl("A", (N,)),), (ScalarDecl("x"),), (body,))

    def test_loop_shadowing_param_rejected(self):
        body = loop("N", 1, 3, [assign(idx("A", N), 2.0)])
        with pytest.raises(IRError, match="loop 'do N' shadows parameter 'N'"):
            Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (body,))

    @pytest.mark.parametrize("name", ["max", "end", "merge", "output", "MAX", "Do"])
    @pytest.mark.parametrize("kind", ["array", "scalar", "param", "loop", "program"])
    def test_keyword_names_rejected(self, kind, name):
        # The text of such a program would not parse back: `real max`
        # reads `max` as the intrinsic.
        array = name if kind == "array" else "A"
        var = name if kind == "loop" else "i"
        body = loop(var, 1, 3, [assign(idx(array, sym(var)), 0.0)])
        with pytest.raises(IRError, match=f"{name!r} is a keyword of the program text"):
            Program(
                name if kind == "program" else "p",
                (name,) if kind == "param" else (),
                (ArrayDecl(array, (3,)),),
                (ScalarDecl(name),) if kind == "scalar" else (),
                (body,),
            )

    def test_unknown_output_rejected(self):
        with pytest.raises(IRError):
            Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (), outputs=("B",))

    def test_outputs_default_to_arrays(self):
        assert simple().outputs == ("A",)


class TestAccessors:
    def test_array_lookup(self):
        assert simple().array("A").rank == 1
        with pytest.raises(KeyError):
            simple().array("B")

    def test_has_array_scalar(self):
        p = simple()
        assert p.has_array("A") and not p.has_array("x")
        assert not p.has_scalar("A")

    def test_loop_variables(self):
        assert simple().loop_variables() == {"i"}

    def test_all_names(self):
        assert {"N", "A", "i"} <= simple().all_names()

    def test_with_body_keeps_decls(self):
        p = simple().with_body(())
        assert p.arrays == simple().arrays and p.body == ()

    def test_adding_arrays(self):
        p = simple().adding_arrays([ArrayDecl("H", (N,))])
        assert p.has_array("H")
        # outputs unchanged
        assert p.outputs == ("A",)

    def test_with_name(self):
        assert simple().with_name("q").name == "q"
