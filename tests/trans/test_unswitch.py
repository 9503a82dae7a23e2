"""Unit tests for loop unswitching and guard-fact propagation."""

import numpy as np

from repro.exec import run_compiled
from repro.ir.builder import and_, assign, ceq, cne, idx, if_, loop, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.ir.stmt import If, Loop
from repro.kernels.recipes import build_variant
from repro.trans.cleanup import propagate_guard_facts
from repro.trans.unswitch import unswitch_invariant_guards

N, i, j, k = sym("N"), sym("i"), sym("j"), sym("k")


def guarded_program() -> Program:
    inner = loop(
        "i",
        1,
        N,
        [
            if_(ceq(j, 1), assign(idx("A", i), 1.0)),
            assign(idx("B", i), idx("B", i) + 1.0),
        ],
    )
    body = loop("j", 1, N, [inner])
    return Program(
        "g", ("N",), (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))), (), (body,)
    )


class TestUnswitch:
    def test_guard_hoisted(self):
        p = unswitch_invariant_guards(guarded_program())
        outer = p.body[0]
        assert isinstance(outer, Loop)
        hoisted = outer.body[0]
        assert isinstance(hoisted, If)
        assert isinstance(hoisted.then[0], Loop)
        assert isinstance(hoisted.orelse[0], Loop)

    def test_semantics_preserved(self, rng):
        p = guarded_program()
        q = unswitch_invariant_guards(p)
        b0 = rng.random(9)
        x = run_compiled(p, {"N": 9}, {"B": b0})
        y = run_compiled(q, {"N": 9}, {"B": b0})
        assert np.allclose(x.arrays["A"], y.arrays["A"])
        assert np.allclose(x.arrays["B"], y.arrays["B"])

    def test_branch_count_drops(self):
        p = guarded_program()
        q = unswitch_invariant_guards(p)
        n = 24
        cp = run_compiled(p, {"N": n}).counters
        cq = run_compiled(q, {"N": n}).counters
        assert cq.branches < cp.branches
        assert cq.branches == n  # one guard evaluation per j iteration

    def test_variant_guard_not_hoisted(self):
        body = loop(
            "i", 1, N, [if_(ceq(i, 1), assign(idx("A", sym("i")), 1.0))]
        )
        p = Program("v", ("N",), (ArrayDecl("A", (N,)),), (), (body,))
        q = unswitch_invariant_guards(p)
        assert isinstance(q.body[0], Loop)
        assert isinstance(q.body[0].body[0], If)

    def test_guard_on_written_scalar_not_hoisted(self):
        body = loop(
            "i",
            1,
            N,
            [if_(cne(sym("s"), sym("k")), assign("s", 1.0))],
        )
        p = Program(
            "w", ("N",), (ArrayDecl("A", (N,)),),
            (ScalarDecl("s"), ScalarDecl("k")), (body,),
        )
        q = unswitch_invariant_guards(p)
        assert isinstance(q.body[0], Loop)


class TestPropagateGuardFacts:
    def test_conjunct_dropped_in_then(self):
        inner = if_(and_(ceq(j, k + 1), ceq(i, k)), assign("s", 1.0))
        p = Program(
            "f",
            ("N",),
            (),
            (ScalarDecl("s"),),
            (loop("k", 1, N, [loop("j", 1, N, [
                if_(ceq(j, k + 1), [loop("i", 1, N, [inner])])
            ])]),),
        )
        q = propagate_guard_facts(p)
        text = str(q)
        # the nested conjunct j == k+1 disappears inside the hoisted branch
        assert text.count("j .EQ. k + 1") == 1

    def test_dead_branch_removed(self):
        dead = if_(ceq(j, 1), assign("s", 1.0))
        p = Program(
            "d",
            ("N",),
            (),
            (ScalarDecl("s"),),
            (loop("j", 2, N, [
                if_(ceq(j, 1), [assign("s", 9.0)], [dead, assign("s", 2.0)])
            ]),),
        )
        q = propagate_guard_facts(p)
        # inside the else of (j == 1), the inner (j == 1) guard is dead
        text = str(q)
        assert "s = 1.0" not in text

    def test_loop_rebinding_kills_fact(self, rng):
        # fact (i == 1) must not survive into a new loop over i
        body = if_(
            ceq(i, 1),
            [loop("i", 1, N, [if_(ceq(i, 1), assign(idx("A", i), 5.0))])],
        )
        p = Program(
            "r", ("N",), (ArrayDecl("A", (N,)),), (),
            (loop("i", 1, N, [body]),),
        )
        q = propagate_guard_facts(p)
        x = run_compiled(p, {"N": 6})
        y = run_compiled(q, {"N": 6})
        assert np.allclose(x.arrays["A"], y.arrays["A"])

    def test_semantics_on_tiled_kernels(self):
        from repro.kernels import cholesky

        p = {"N": 11}
        inputs = cholesky.make_inputs(p)
        out = run_compiled(build_variant("cholesky", "tiled", tile=3), p, inputs)
        assert np.allclose(out.arrays["A"], cholesky.reference(p, inputs)["A"])

    def test_unswitched_cholesky_hot_path_guard_free(self):
        from repro.ir import pretty

        text = pretty(build_variant("cholesky", "tiled", tile=4))
        # the else branch (j > k+1, the bulk of iterations) has a bare update
        assert "else" in text
        tail = text[text.index("else"):]
        first_loop = tail[tail.index("do i"):]
        body_line = first_loop.splitlines()[1].strip()
        assert body_line.startswith("A(")
