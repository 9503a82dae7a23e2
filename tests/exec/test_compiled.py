"""Unit tests for the compiling executor."""

import ast

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram, run_compiled
from repro.exec.events import decode_memory_events
from repro.experiments.runner import build_program
from repro.ir.builder import (
    assign,
    ceq,
    cgt,
    cne,
    fabs,
    idx,
    if_,
    loop,
    sqrt,
    sym,
    val,
)
from repro.ir.expr import Select
from repro.ir.program import ArrayDecl, Program, ScalarDecl

N = sym("N")
i = sym("i")


def prog(body, arrays=(("A", 1),), scalars=(), params=("N",)):
    decls = tuple(
        ArrayDecl(name, (N,) * rank) for name, rank in arrays
    )
    sdecls = tuple(ScalarDecl(s) for s in scalars)
    return Program("t", params, decls, sdecls, tuple(body))


class TestBasics:
    def test_fill_loop(self):
        p = prog([loop("i", 1, N, [assign(idx("A", i), 2.0)])])
        out = run_compiled(p, {"N": 5})
        assert np.allclose(out.arrays["A"], 2.0)

    def test_one_based_indexing(self):
        p = prog([assign(idx("A", val(1)), 7.0), assign(idx("A", N), 9.0)])
        out = run_compiled(p, {"N": 4})
        assert out.arrays["A"][0] == 7.0 and out.arrays["A"][3] == 9.0

    def test_column_major_semantics(self):
        # A(i, j): first index fastest — B(2,1) differs from B(1,2).
        p = Program(
            "t2",
            ("N",),
            (ArrayDecl("B", (N, N)),),
            (),
            (assign(idx("B", val(2), val(1)), 5.0),),
        )
        out = run_compiled(p, {"N": 3})
        assert out.arrays["B"][1, 0] == 5.0 and out.arrays["B"][0, 1] == 0.0

    def test_inputs_seed_arrays(self, rng):
        a0 = rng.random(6)
        p = prog([loop("i", 1, N, [assign(idx("A", i), idx("A", i) * 2.0)])])
        out = run_compiled(p, {"N": 6}, {"A": a0})
        assert np.allclose(out.arrays["A"], a0 * 2)

    def test_input_shape_checked(self):
        p = prog([assign(idx("A", val(1)), 0.0)])
        with pytest.raises(ExecutionError):
            run_compiled(p, {"N": 4}, {"A": np.zeros(5)})

    def test_missing_param(self):
        p = prog([assign(idx("A", val(1)), 0.0)])
        with pytest.raises(ExecutionError):
            run_compiled(p, {})

    def test_scalars_returned(self):
        p = prog([assign("s", 3.5)], scalars=("s",))
        assert run_compiled(p, {"N": 1}).scalars["s"] == 3.5

    def test_intrinsics(self):
        p = prog([assign("s", sqrt(val(16.0)) + fabs(val(-2.0)))], scalars=("s",))
        assert run_compiled(p, {"N": 1}).scalars["s"] == 6.0

    def test_select_expression(self):
        body = loop(
            "i",
            1,
            N,
            [assign(idx("A", i), Select(cgt(i, 2), val(1.0), val(0.0)))],
        )
        out = run_compiled(prog([body]), {"N": 4})
        assert list(out.arrays["A"]) == [0.0, 0.0, 1.0, 1.0]

    def test_keyword_loop_var(self):
        body = loop("is", 1, N, [assign(idx("A", sym("is")), 1.0)])
        out = run_compiled(prog([body]), {"N": 3})
        assert np.allclose(out.arrays["A"], 1.0)

    def test_if_else(self):
        body = loop(
            "i", 1, N,
            [if_(ceq(i, 2), assign(idx("A", i), 1.0), assign(idx("A", i), 2.0))],
        )
        out = run_compiled(prog([body]), {"N": 3})
        assert list(out.arrays["A"]) == [2.0, 1.0, 2.0]

    def test_stepped_loop(self):
        body = loop("i", 1, N, [assign(idx("A", i), 1.0)], step=2)
        out = run_compiled(prog([body]), {"N": 5})
        assert list(out.arrays["A"]) == [1.0, 0.0, 1.0, 0.0, 1.0]


class TestCounters:
    def test_loads_stores(self):
        body = loop("i", 1, N, [assign(idx("A", i), idx("A", i) + 1.0)])
        out = run_compiled(prog([body]), {"N": 10})
        assert out.counters.loads == 10 and out.counters.stores == 10
        assert out.counters.loop_iters == 10

    def test_branches_counted(self):
        body = loop("i", 1, N, [if_(ceq(i, 1), assign("s", 1.0))])
        out = run_compiled(prog([body], scalars=("s",)), {"N": 7})
        assert out.counters.branches == 7

    def test_flops_exclude_subscript_arith(self):
        body = loop("i", 1, N - 1, [assign(idx("A", i + 1), idx("A", i) * 2.0)])
        out = run_compiled(prog([body]), {"N": 5})
        assert out.counters.flops == 4  # one multiply per iteration


class TestTrace:
    def test_trace_matches_counters(self):
        body = loop("i", 1, N, [assign(idx("A", i), idx("A", i) + 1.0)])
        cp = CompiledProgram(prog([body]), trace=True)
        out = cp.run({"N": 8})
        aid, lin, rw = decode_memory_events(out.trace.memory)
        assert len(aid) == out.counters.loads + out.counters.stores
        assert int((rw == 1).sum()) == out.counters.stores

    def test_trace_order_load_before_store(self):
        body = assign(idx("A", val(1)), idx("A", val(2)))
        cp = CompiledProgram(prog([body]), trace=True)
        out = cp.run({"N": 2})
        _aid, lin, rw = decode_memory_events(out.trace.memory)
        assert list(rw) == [0, 1]
        assert list(lin) == [1, 0]

    def test_branch_trace_sites(self):
        body = loop("i", 1, N, [if_(cne(i, 1), assign("s", 1.0))])
        cp = CompiledProgram(prog([body], scalars=("s",)), trace=True)
        out = cp.run({"N": 5})
        sid, taken = out.trace.branch_events()
        assert set(sid) == {0}
        assert list(taken) == [0, 1, 1, 1, 1]
        assert 0 in out.branch_sites

    def test_untraced_has_no_buffers(self):
        out = run_compiled(prog([assign(idx("A", val(1)), 0.0)]), {"N": 1})
        assert out.trace is None


class TestReservedNames:
    """Generated code owns the names starting with ``_``: an IR name there
    is rejected at compile time, naming the identifier."""

    @staticmethod
    def program_naming(kind: str, name: str) -> Program:
        if kind == "param":
            return prog([assign(idx("A", val(1)), sym(name))], params=("N", name))
        if kind == "array":
            return prog([assign(idx(name, val(1)), 1.0)], arrays=((name, 1),))
        if kind == "scalar":
            return prog([assign(name, 1.0)], scalars=(name,))
        return prog([loop(name, 1, N, [assign(idx("A", sym(name)), 1.0)])])

    @pytest.mark.parametrize(
        "kind,name",
        [("param", "_ma"), ("array", "_mem"), ("scalar", "_c_loads"), ("loop", "_t")],
    )
    def test_rejected(self, kind, name):
        program = self.program_naming(kind, name)
        for trace in (True, False):
            with pytest.raises(ExecutionError, match=repr(name)):
                CompiledProgram(program, trace=trace)


def _innermost_loops(source: str) -> list[ast.For]:
    tree = ast.parse(source)
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and not any(isinstance(n, ast.For) for n in ast.walk(node) if n is not node)
    ]


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class TestHotLoop:
    """The innermost loops of generated kernels run little besides their
    subscript arithmetic, trace appends and real computation."""

    @pytest.mark.parametrize("kernel,variant", [("lu", "seq"), ("qr", "tiled_sunk")])
    def test_innermost_loops_are_lean(self, kernel, variant):
        program, _, _ = build_program(kernel, variant, tile=4)
        loops = _innermost_loops(CompiledProgram(program, trace=True).source)
        assert loops
        for node in loops:
            # Unconditional costs are added before the loop, and the flush
            # guard sits in the loops around it.
            for stmt in node.body:
                assert not _names(stmt) & {"_flush"}, ast.unparse(stmt)
                if isinstance(stmt, ast.AugAssign):
                    assert not stmt.target.id.startswith("_c_"), ast.unparse(stmt)
            # Every stride product left inside reads a name the loop binds.
            bound = {node.target.id} | {
                t.id
                for n in ast.walk(node)
                if isinstance(n, ast.Assign)
                for t in n.targets
                if isinstance(t, ast.Name) and not t.id.startswith("_")
            }
            for n in ast.walk(node):
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult):
                    if isinstance(n.left, ast.Name) and n.left.id.startswith("_s_"):
                        assert _names(n.right) & bound, ast.unparse(n)

    def test_lu_update_loop(self):
        """``A(i,j) = A(i,j) - A(i,k)*A(k,j)``: four appends, one store,
        and no counter statement at all."""
        program, _, _ = build_program("lu", "seq")
        loops = _innermost_loops(CompiledProgram(program, trace=True).source)
        (update,) = [
            node
            for node in loops
            if any(
                isinstance(n, ast.Assign)
                and isinstance(n.targets[0], ast.Subscript)
                and isinstance(n.value, ast.BinOp)
                and isinstance(n.value.op, ast.Sub)
                for n in node.body
            )
        ]
        calls = [n.func.id for n in ast.walk(update) if isinstance(n, ast.Call)]
        assert calls == ["_ma"] * 4
        assert not any(isinstance(n, (ast.AugAssign, ast.If)) for n in ast.walk(update))
