"""Printer round-trip: parse_program(str(p)) is structurally identical to p."""

import pytest
from hypothesis import given, strategies as st

from repro.frontend import parse_program
from repro.ir.builder import assign, cge, cle, idx, if_, loop, or_, sym, val
from repro.ir.expr import BinOp, Select, UnOp
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.kernels.recipes import build_variant, registry_build_matrix
from repro.kernels.registry import ALL_KERNELS, get_kernel
from repro.pipeline.recipe import program_fingerprint

N = sym("N")


def roundtrip(program: Program) -> Program:
    text = str(program)
    back = parse_program(text)
    assert back.name == program.name
    assert back.params == program.params
    assert back.arrays == program.arrays
    assert back.scalars == program.scalars
    assert back.outputs == program.outputs
    assert back.body == program.body
    return back


class TestRoundtripKernels:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_sequential_kernels(self, kernel):
        """Each kernel's listing parses to a program that round-trips."""
        roundtrip(parse_program(get_kernel(kernel).SOURCE))

    @pytest.mark.parametrize(
        "kernel,variant,tile",
        registry_build_matrix(),
        ids=[f"{k}/{v}" + ("" if t is None else f"@t{t}")
             for k, v, t in registry_build_matrix()],
    )
    def test_registry_programs(self, kernel, variant, tile):
        program = build_variant(kernel, variant, tile=tile)
        back = roundtrip(program)
        assert program_fingerprint(back) == program_fingerprint(program)


class TestRoundtripConstructs:
    def test_negative_constants(self):
        p = Program(
            "neg", ("N",), (ArrayDecl("A", (N,)),), (),
            (assign(idx("A", val(1)), val(-2.5)),),
        )
        back = roundtrip(p)
        import numpy as np

        from repro.exec import run_compiled

        a = run_compiled(p, {"N": 2}).arrays["A"]
        b = run_compiled(back, {"N": 2}).arrays["A"]
        assert np.allclose(a, b)

    def test_disjunctive_guard(self):
        body = loop(
            "i",
            1,
            N,
            [if_(or_(cle(sym("i"), val(2)), cge(sym("i"), N)), assign("s", 1.0))],
        )
        p = Program("dis", ("N",), (ArrayDecl("A", (N,)),), (ScalarDecl("s"),), (body,))
        roundtrip(p)

    def test_stepped_loop(self):
        body = loop("i", 1, N, [assign(idx("A", sym("i")), 0.0)], step=3)
        p = Program("st", ("N",), (ArrayDecl("A", (N,)),), (), (body,))
        roundtrip(p)

    def test_select_roundtrips(self):
        body = assign(
            idx("A", val(1)),
            Select(cge(val(1), val(0)), val(1.0), val(2.0)),
        )
        p = Program("sel", ("N",), (ArrayDecl("A", (N,)),), (), (body,))
        assert "merge(1.0, 2.0, 1 .GE. 0)" in str(p)
        roundtrip(p)


_i = sym("i")
_leaf = st.one_of(
    st.integers(-3, 3).map(val),
    st.floats(-4.0, 4.0, allow_nan=False).map(val),
    st.just(_i),
    st.just(sym("s")),
    st.just(idx("A", _i)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
        children.map(lambda e: UnOp("-", e)),
        st.tuples(children, children, children).map(
            lambda t: Select(cge(t[0], val(1)), t[1], t[2])
        ),
    )


_value = st.recursive(_leaf, _extend, max_leaves=8)


@st.composite
def rand_program(draw):
    n_stmts = draw(st.integers(1, 4))
    stmts = []
    for idx_ in range(n_stmts):
        c = draw(st.integers(0, 3))
        i = sym("i")
        if c == 0:
            stmts.append(assign(idx("A", i), i * draw(st.integers(1, 5)) + 1.5))
        elif c == 1:
            stmts.append(
                if_(cge(i, val(draw(st.integers(1, 4)))), assign("s", 2.0),
                    assign("s", 3.0))
            )
        elif c == 2:
            stmts.append(assign("s", sym("s") + 1.0))
        else:
            stmts.append(assign("s", draw(_value)))
    body = loop("i", 1, N, stmts)
    return Program(
        "rand", ("N",), (ArrayDecl("A", (N,)),), (ScalarDecl("s"),), (body,)
    )


@given(rand_program())
def test_random_programs_roundtrip(program):
    roundtrip(program)
