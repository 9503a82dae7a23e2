"""Unit tests for sinking, peeling, scalar expansion and cleanups."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.exec import run_compiled
from repro.ir.builder import assign, ceq, cne, idx, if_, loop, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.ir.stmt import If, Loop
from repro.trans.cleanup import scalarize_arrays
from repro.trans.expand import expand_scalar
from repro.trans.peel import peel_last, substitute_var
from repro.trans.sinking import sink_guards

N, i, j, k, m = sym("N"), sym("i"), sym("j"), sym("k"), sym("m")


class TestSinking:
    def test_invariant_guard_sunk(self):
        s = if_(cne(m, k), loop("j", 1, N, [assign(idx("A", j), 0.0)]))
        out = sink_guards(s)
        assert isinstance(out, Loop)
        assert isinstance(out.body[0], If)

    def test_guard_on_loop_var_not_sunk(self):
        s = if_(ceq(j, 1), loop("j", 1, N, [assign(idx("A", j), 0.0)]))
        out = sink_guards(s)
        assert isinstance(out, If)

    def test_guard_on_written_scalar_not_sunk(self):
        s = if_(cne(m, k), loop("j", 1, N, [assign("m", j)]))
        out = sink_guards(s)
        assert isinstance(out, If)

    def test_recursive_sinking(self):
        inner = loop("i", 1, N, [assign(idx("A", i), 1.0)])
        s = if_(cne(m, k), loop("j", 1, N, [if_(ceq(k, 1), inner)]))
        out = sink_guards(s)
        # both guards end up inside the innermost loop
        assert isinstance(out, Loop)
        assert isinstance(out.body[0], Loop)
        assert isinstance(out.body[0].body[0], If)


class TestPeel:
    def test_substitute_var(self):
        s = assign(idx("A", i), i + 1)
        out = substitute_var(s, "i", N)
        assert str(out) == "A(N) = N + 1"

    def test_peel_last_semantics(self):
        body = loop("i", 1, N, [assign(idx("A", i), 3.0)])
        shortened, peeled = peel_last(body)
        p1 = Program("a", ("N",), (ArrayDecl("A", (N,)),), (), (body,))
        p2 = Program("b", ("N",), (ArrayDecl("A", (N,)),), (), (shortened,) + peeled)
        for n in (1, 4, 9):
            x = run_compiled(p1, {"N": n}).arrays["A"]
            y = run_compiled(p2, {"N": n}).arrays["A"]
            assert np.allclose(x, y)

    def test_nonunit_step_rejected(self):
        with pytest.raises(TransformError):
            peel_last(loop("i", 1, N, [assign("x", 1)], step=2))


class TestExpandScalar:
    def test_lu_style_expansion(self):
        body = loop(
            "k",
            1,
            N,
            [assign("s", k), assign(idx("A", k), sym("s") * 2)],
        )
        p = Program("p", ("N",), (ArrayDecl("A", (N,)),), (ScalarDecl("s"),), (body,))
        q = expand_scalar(p, "s", "k", N)
        assert any(a.name == "s_x" for a in q.arrays)
        for n in (3, 6):
            a = run_compiled(p, {"N": n}).arrays["A"]
            b = run_compiled(q, {"N": n}).arrays["A"]
            assert np.allclose(a, b)

    def test_occurrences_outside_loop_untouched(self):
        body = (
            assign("s", 5.0),
            loop("k", 1, N, [assign(idx("A", k), sym("s"))]),
        )
        p = Program("p", ("N",), (ArrayDecl("A", (N,)),), (ScalarDecl("s"),), body)
        q = expand_scalar(p, "s", "k", N)
        # the write before the loop still targets the scalar
        assert str(q.body[0]) == "s = 5.0"

    def test_missing_scalar_rejected(self):
        p = Program("p", ("N",), (ArrayDecl("A", (N,)),), (), ())
        with pytest.raises(TransformError):
            expand_scalar(p, "zz", "k", N)


class TestCleanup:
    def test_scalarize_temporary(self):
        body = loop(
            "i",
            1,
            N,
            [
                assign(idx("L", i), idx("A", i) * 2.0),
                assign(idx("A", i), idx("L", i)),
            ],
        )
        p = Program(
            "p",
            ("N",),
            (ArrayDecl("A", (N,)), ArrayDecl("L", (N,))),
            (),
            (body,),
            outputs=("A",),
        )
        q = scalarize_arrays(p, ["L"])
        assert not q.has_array("L") and q.has_scalar("l_s")
        for n in (4, 7):
            a = run_compiled(p, {"N": n}).arrays["A"]
            b = run_compiled(q, {"N": n}).arrays["A"]
            assert np.allclose(a, b)

    def test_scalarize_rejects_cross_iteration_use(self):
        body = loop(
            "i",
            2,
            N,
            [
                assign(idx("A", i), idx("L", i - 1)),
                assign(idx("L", i), idx("A", i)),
            ],
        )
        p = Program(
            "p",
            ("N",),
            (ArrayDecl("A", (N,)), ArrayDecl("L", (N,))),
            (),
            (body,),
            outputs=("A",),
        )
        with pytest.raises(TransformError):
            scalarize_arrays(p, ["L"])

    def test_outputs_never_scalarised(self):
        body = loop("i", 1, N, [assign(idx("A", i), 0.0)])
        p = Program("p", ("N",), (ArrayDecl("A", (N,)),), (), (body,), outputs=("A",))
        assert scalarize_arrays(p, None) is p or scalarize_arrays(p, None).has_array("A")
