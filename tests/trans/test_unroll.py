"""Unit tests for unrolling and unroll-and-jam."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.exec import run_compiled
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program
from repro.trans.unroll import unroll_and_jam_program, unroll_program

N, i, j = sym("N"), sym("i"), sym("j")


def vec_program() -> Program:
    body = loop("i", 1, N, [assign(idx("A", i), idx("A", i) * 2.0 + 1.0)])
    return Program("v", ("N",), (ArrayDecl("A", (N,)),), (), (body,))


def mat_program() -> Program:
    body = loop(
        "i",
        1,
        N,
        [loop("j", 1, N, [assign(idx("B", i, j), idx("B", i, j) + i * 1.0)])],
    )
    return Program("m", ("N",), (ArrayDecl("B", (N, N)),), (), (body,))


class TestUnroll:
    @pytest.mark.parametrize("factor", [2, 3, 4, 7])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
    def test_semantics_all_remainders(self, factor, n, rng):
        p = vec_program()
        q = unroll_program(p, "i", factor)
        a0 = rng.random(n)
        x = run_compiled(p, {"N": n}, {"A": a0}).arrays["A"]
        y = run_compiled(q, {"N": n}, {"A": a0}).arrays["A"]
        assert np.allclose(x, y)

    def test_loop_overhead_reduced(self):
        p = vec_program()
        q = unroll_program(p, "i", 4)
        n = 32
        cp = run_compiled(p, {"N": n}).counters
        cq = run_compiled(q, {"N": n}).counters
        assert cq.loop_iters < cp.loop_iters
        assert cq.loads == cp.loads  # same work

    def test_missing_loop(self):
        with pytest.raises(TransformError):
            unroll_program(vec_program(), "z", 2)

    def test_bad_factor(self):
        with pytest.raises(TransformError):
            unroll_program(vec_program(), "i", 0)

    def test_inner_loop_unrollable(self, rng):
        p = mat_program()
        q = unroll_program(p, "j", 3)
        n = 7
        b0 = rng.random((n, n))
        x = run_compiled(p, {"N": n}, {"B": b0}).arrays["B"]
        y = run_compiled(q, {"N": n}, {"B": b0}).arrays["B"]
        assert np.allclose(x, y)


class TestUnrollAndJam:
    @pytest.mark.parametrize("factor", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 6, 9, 11])
    def test_semantics(self, factor, n, rng):
        p = mat_program()
        q = unroll_and_jam_program(p, "i", factor)
        b0 = rng.random((n, n))
        x = run_compiled(p, {"N": n}, {"B": b0}).arrays["B"]
        y = run_compiled(q, {"N": n}, {"B": b0}).arrays["B"]
        assert np.allclose(x, y)

    def test_inner_trip_overhead_drops(self):
        p = mat_program()
        q = unroll_and_jam_program(p, "i", 4)
        n = 16
        cp = run_compiled(p, {"N": n}).counters
        cq = run_compiled(q, {"N": n}).counters
        assert cq.loop_iters < cp.loop_iters

    def test_triangular_rejected(self):
        body = loop(
            "i", 1, N, [loop("j", i, N, [assign(idx("B", i, j), 1.0)])]
        )
        p = Program("t", ("N",), (ArrayDecl("B", (N, N)),), (), (body,))
        with pytest.raises(TransformError):
            unroll_and_jam_program(p, "i", 2)

    def test_imperfect_rejected(self):
        body = loop("i", 1, N, [assign(idx("A", i), 0.0)])
        p = Program("t", ("N",), (ArrayDecl("A", (N,)),), (), (body,))
        with pytest.raises(TransformError):
            unroll_and_jam_program(p, "i", 2)

    def test_locality_benefit(self):
        # jamming i makes each j iteration touch B(i..i+3, j) — adjacent
        # elements in column-major layout — instead of revisiting the row
        # across separate outer iterations: L1 misses (and cycles) drop even
        # though the boundary guards add instructions.
        p = mat_program()
        q = unroll_and_jam_program(p, "i", 4)
        params = {"N": 48}
        rep_p = _measure(p, params)
        rep_q = _measure(q, params)
        assert rep_q.l1_misses < rep_p.l1_misses
        assert rep_q.total_cycles < rep_p.total_cycles


def _measure(program, params):
    from repro.exec.compiled import CompiledProgram
    from repro.machine import measure_streaming, octane2_scaled

    cp = CompiledProgram(program, trace=True)
    return measure_streaming(cp, params, octane2_scaled())[1]
