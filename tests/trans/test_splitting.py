"""Unit tests for index-set splitting (first-iteration peeling)."""

import numpy as np

from repro.exec import run_compiled
from repro.ir.builder import assign, ceq, cge, idx, if_, loop, sym
from repro.ir.program import ArrayDecl, Program
from repro.ir.stmt import If, Loop
from repro.trans.splitting import split_first_iteration, split_point_guards

N, i, k = sym("N"), sym("i"), sym("k")


def guarded_loop() -> Loop:
    return loop(
        "i",
        k,
        N,
        [
            if_(ceq(i, k), assign(idx("A", i), 1.0)),
            if_(cge(i, k + 1), assign(idx("A", i), idx("A", i - 1) + 1.0)),
        ],
    )


class TestSplitFirstIteration:
    def test_splits_point_and_range_guards(self):
        out = split_first_iteration(guarded_loop())
        assert out is not None and len(out) == 2
        peel, rest = out
        assert isinstance(peel, If)  # guarded by k <= N
        assert isinstance(rest, Loop)
        # no guards left in either piece
        assert not any(isinstance(s, If) for s in peel.then)
        assert not any(isinstance(s, If) for s in rest.body)

    def test_no_simplification_returns_none(self):
        plain = loop("i", 1, N, [assign(idx("A", i), 0.0)])
        assert split_first_iteration(plain) is None

    def test_nonaffine_guard_left_alone(self):
        from repro.ir.builder import cgt, fabs

        l = loop(
            "i", 1, N,
            [if_(cgt(fabs(sym("s")), 1.0), assign(idx("A", i), 0.0))],
        )
        assert split_first_iteration(l) is None

    def test_outer_facts_enable_split(self):
        # guard i == k+1 in a loop from j, provable only given j == k+1
        from repro.poly.constraint import equals
        from repro.poly.linexpr import LinExpr

        l = loop(
            "i", sym("j"), N,
            [if_(ceq(i, k + 1), assign(idx("A", i), 1.0)),
             assign(idx("A", i), idx("A", i) + 1.0)],
        )
        facts = [equals(LinExpr.var("j"), LinExpr.var("k") + 1)]
        out = split_first_iteration(l, facts)
        assert out is not None

    def test_empty_range_protected(self, rng):
        body = guarded_loop()
        p = Program(
            "s", ("N",), (ArrayDecl("A", (N,)),), (),
            (loop("k", 1, N, [body]),),
        )
        q = split_point_guards(p)
        for n in (1, 2, 6):
            a0 = rng.random(n)
            x = run_compiled(p, {"N": n}, {"A": a0}).arrays["A"]
            y = run_compiled(q, {"N": n}, {"A": a0}).arrays["A"]
            assert np.allclose(x, y), n


class TestSplitPointGuards:
    def test_cholesky_hot_loops_guard_free(self):
        from repro.ir import pretty
        from repro.kernels.recipes import build_variant

        text = pretty(build_variant("cholesky", "tiled", tile=4))
        # The innermost i loops carry no conditionals at all.
        import re

        for m in re.finditer(r"do i = [^\n]*\n(.*?)end do", text, re.S):
            body = m.group(1)
            assert "if (" not in body

    def test_branch_counts_drop_dramatically(self):
        from repro.exec.compiled import run_compiled as rc
        from repro.kernels import cholesky
        from repro.kernels.recipes import build_variant

        n = 32
        p = {"N": n}
        inputs = cholesky.make_inputs(p)
        sunk = rc(build_variant("cholesky", "tiled_sunk", tile=8), p, inputs).counters
        clean = rc(build_variant("cholesky", "tiled", tile=8), p, inputs).counters
        assert clean.branches < sunk.branches / 5

    def test_all_kernels_correct_after_split(self):
        from repro.kernels.recipes import build_variant
        from repro.kernels.registry import KERNELS, get_kernel

        for kernel in KERNELS:
            mod = get_kernel(kernel)
            params = {"N": 12}
            if "M" in mod.PARAMS:
                params["M"] = 3
            inputs = mod.make_inputs(params)
            out = run_compiled(build_variant(kernel, "tiled", tile=5), params, inputs)
            ref = mod.reference(params, inputs)
            assert np.allclose(
                out.arrays["A"], ref["A"], rtol=1e-8
            ), kernel
