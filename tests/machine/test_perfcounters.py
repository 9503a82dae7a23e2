"""Integration tests for the end-to-end measure_streaming() path."""

import pytest

import numpy as np

from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.machine.configs import octane2_scaled
from repro.machine.perfcounters import measure_streaming

N, i, j = sym("N"), sym("i"), sym("j")


def sweep_program() -> Program:
    body = loop(
        "j", 1, N, [loop("i", 1, N, [assign(idx("A", i, j), idx("A", i, j) + 1.0)])]
    )
    return Program("sweep", ("N",), (ArrayDecl("A", (N, N)),), (), (body,))


class TestMeasure:
    def test_needs_trace(self):
        cp = CompiledProgram(sweep_program())
        with pytest.raises(ExecutionError):
            measure_streaming(cp, {"N": 8}, octane2_scaled())

    def test_subscript_below_lower_bound_is_rejected(self):
        """``x = A(0)`` must not wrap to ``A(N)``: the executor checks the
        subscript before its event reaches the layout, and the error names
        the reference (the layout's own check is tested on raw events)."""
        p = Program(
            "under", ("N",), (ArrayDecl("A", (N,)),), (ScalarDecl("x"),),
            (assign("x", idx("A", 0)),),
        )
        cp = CompiledProgram(p, trace=True)
        with pytest.raises(ExecutionError, match=r"subscript 0 out of bounds 1\.\.3 in A\(0\)"):
            measure_streaming(
                cp, {"N": 3}, octane2_scaled(), {"A": np.array([1.0, 2.0, 3.0])}
            )

    def test_column_major_sweep_is_cache_friendly(self):
        n = 32
        rep = _measure(sweep_program(), {"N": n})
        # Column-major traversal with i innermost: 1 miss per 4-element line
        # (plus register effects on loads).
        lines = n * n / 4
        assert rep.l1_misses <= lines * 1.2
        assert rep.l2_misses <= rep.l1_misses

    def test_row_major_sweep_thrashes_more(self):
        bad = Program(
            "bad",
            ("N",),
            (ArrayDecl("A", (N, N)),),
            (),
            (
                loop(
                    "i",
                    1,
                    N,
                    [loop("j", 1, N, [assign(idx("A", i, j), idx("A", i, j) + 1.0)])],
                ),
            ),
        )
        n = 64
        good_rep = _measure(sweep_program(), {"N": n})
        bad_rep = _measure(bad, {"N": n})
        assert bad_rep.l1_misses > good_rep.l1_misses * 2

    def test_report_dict_schema(self):
        rep = _measure(sweep_program(), {"N": 8})
        d = rep.as_dict()
        assert {"l1_misses", "l2_misses", "graduated_instructions",
                "total_cycles", "register_load_hits"} <= set(d)

    def test_total_cycles_consistent(self):
        rep = _measure(sweep_program(), {"N": 16})
        costs = octane2_scaled().costs
        expected = (
            rep.graduated_instructions * costs.instruction_cycles
            + costs.memory_stall_cycles(rep.l1_misses, rep.l2_misses)
            + rep.branches_mispredicted * costs.branch_mispredict_cycles
        )
        assert rep.total_cycles == pytest.approx(expected)


def _measure(program, params):
    cp = CompiledProgram(program, trace=True)
    return measure_streaming(cp, params, octane2_scaled())[1]
