"""Unit tests for per-array trace statistics."""

from repro.exec.compiled import CompiledProgram
from repro.exec.tracestats import ArrayStatsSink
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program

N, i = sym("N"), sym("i")


def copy_program() -> Program:
    body = loop("i", 1, N, [assign(idx("B", i), idx("A", i) * 2.0)])
    return Program(
        "cp", ("N",), (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))), (), (body,)
    )


def array_stats(program, params):
    """Per-array statistics of one run, streamed through ArrayStatsSink."""
    cp = CompiledProgram(program, trace=True)
    sink = ArrayStatsSink(cp.array_ids)
    cp.run_streaming(params, memory_sink=sink)
    return sink.finish()


class TestTraceStatistics:
    def test_loads_and_stores_attributed(self):
        stats = array_stats(copy_program(), {"N": 10})
        assert stats["A"].loads == 10 and stats["A"].stores == 0
        assert stats["B"].loads == 0 and stats["B"].stores == 10

    def test_distinct_elements(self):
        stats = array_stats(copy_program(), {"N": 10})
        assert stats["A"].distinct_elements == 10
        assert stats["B"].distinct_elements == 10

    def test_reuse_factor(self):
        body = loop(
            "i", 1, N, [assign(idx("B", sym("i")), idx("A", 1) * 1.0)]
        )
        p = Program(
            "r", ("N",), (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))), (), (body,)
        )
        stats = array_stats(p, {"N": 8})
        assert stats["A"].reuse_factor == 8.0

    def test_untouched_array(self):
        p = Program(
            "u",
            ("N",),
            (ArrayDecl("A", (N,)), ArrayDecl("Z", (N,))),
            (),
            (assign(idx("A", 1), 0.0),),
        )
        stats = array_stats(p, {"N": 4})
        assert stats["Z"].accesses == 0

    def test_footprint(self):
        stats = array_stats(copy_program(), {"N": 10})
        assert sum(s.distinct_elements for s in stats.values()) * 8 == 20 * 8

    def test_whole_trace_chunk_matches_stream(self):
        run = CompiledProgram(copy_program(), trace=True).run({"N": 10})
        sink = ArrayStatsSink(run.array_ids)
        sink.feed(run.trace.memory)
        assert sink.finish() == array_stats(copy_program(), {"N": 10})

    def test_jacobi_fusion_cuts_l_traffic(self):
        from repro.kernels import jacobi

        params = {"N": 12, "M": 2}
        inputs = jacobi.make_inputs(params)
        stats = array_stats(jacobi.sequential(), params)
        assert stats["L"].loads > 0 and stats["L"].stores > 0
        fixed_stats = array_stats(jacobi.fixed(), params)
        assert "L" not in fixed_stats  # scalarised away
        assert "H_A" in fixed_stats
