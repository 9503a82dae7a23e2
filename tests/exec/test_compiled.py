"""Unit tests for the compiling executor."""

import math
import re

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram, build, run_compiled
from repro.experiments.runner import build_program
from repro.ir.builder import (
    and_,
    assign,
    ceq,
    cgt,
    cne,
    fabs,
    fmax,
    fmin,
    idx,
    if_,
    loop,
    or_,
    sqrt,
    sym,
    val,
)
from repro.ir.expr import Select
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.machine.layout import layout_for_program
from tests.exec.interp import crosscheck_traces, run_interpreted
from tests.machine.reference import decode_branch_events, split_memory_events

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
        _addresses, rw = split_memory_events(out.trace.memory)
        assert len(rw) == out.counters.loads + out.counters.stores
        assert int(rw.sum()) == out.counters.stores

    def test_trace_order_load_before_store(self):
        body = assign(idx("A", val(1)), idx("A", val(2)))
        cp = CompiledProgram(prog([body]), trace=True)
        out = cp.run({"N": 2})
        addresses, rw = split_memory_events(out.trace.memory)
        assert list(rw) == [0, 1]
        assert list(addresses) == [8, 0]

    def test_branch_trace_sites(self):
        body = loop("i", 1, N, [if_(cne(i, 1), assign("s", 1.0))])
        cp = CompiledProgram(prog([body], scalars=("s",)), trace=True)
        out = cp.run({"N": 5})
        sid, taken = decode_branch_events(out.trace.branches)
        assert set(sid) == {0}
        assert list(taken) == [0, 1, 1, 1, 1]
        assert 0 in out.branch_sites

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_memory_events_are_layout_addresses(self, engine):
        """A memory event is ``(base + 8 * column-major offset) << 1 |
        is_write``, with the bases of the run's layout (A is 5 doubles, so
        B starts at the next 128-byte boundary)."""
        j = sym("j")
        body = loop("j", 1, N, [loop("i", 1, N, [
            assign(idx("B", i, j), idx("A", i) + idx("B", i, j)),
        ])])
        program = prog([body], arrays=(("A", 1), ("B", 2)))
        n = 5
        bases = layout_for_program(program, {"N": n}).bases
        assert bases == {"A": 0, "B": 128}
        expected = []
        for jj in range(n):
            for ii in range(n):
                b = bases["B"] + 8 * (ii + n * jj)
                expected += [(bases["A"] + 8 * ii) << 1, b << 1, b << 1 | 1]
        run = _ENGINES[engine](program, {"N": n}, trace=True)
        assert run.trace.memory.tolist() == expected

    @pytest.mark.parametrize(
        "cond",
        [
            pytest.param(and_(cgt(i, 1), cgt(idx("A", i - 1), 0.0)), id="and"),
            pytest.param(or_(ceq(i, 1), cgt(idx("A", i - 1), 0.0)), id="or"),
        ],
    )
    def test_logical_operators_short_circuit(self, cond):
        """An operand after the first runs only when the ones before it
        leave the result open: at i = 1, A(i-1) is neither checked nor
        loaded nor counted, in both engines."""
        program = prog([loop("i", 1, N, [if_(cond, assign(idx("A", i), 1.0))])])
        compiled, interpreted = crosscheck_traces(program, {"N": 4}, {"A": np.ones(4)})
        assert compiled.counters.loads == interpreted.counters.loads == 3

    def test_untraced_has_no_buffers(self):
        out = run_compiled(prog([assign(idx("A", val(1)), 0.0)]), {"N": 1})
        assert out.trace is None


def _innermost_loops(source: str) -> list[list[str]]:
    """The body lines of every ``for`` of the generated C that holds no
    other ``for``."""
    lines = source.splitlines()
    loops = []
    for start, line in enumerate(lines):
        if not line.lstrip().startswith("for ("):
            continue
        close = line[: len(line) - len(line.lstrip())] + "}"
        end = lines.index(close, start + 1)
        body = [s.strip() for s in lines[start + 1 : end]]
        if not any(s.startswith("for (") for s in body):
            loops.append(body)
    return loops


#: What the body of an innermost loop may call: the kernel's macros, which
#: reach the flush callback only when a chunk fills, and math intrinsics.
_LEAN_CALLS = {"MEM", "BRA", "BOUND", "FAIL", "DIV", "SQRT", "IABS", "MAX", "MIN",
               "INT64_C", "fabs", "sqrt"}
_COUNTER = re.compile(r"c_(\w+) \+= \d+;")


class TestHotLoop:
    """The innermost loops of generated kernels run little besides their
    subscript arithmetic and checks, event appends and real computation."""

    @pytest.mark.parametrize("kernel,variant", [("lu", "seq"), ("qr", "tiled_sunk")])
    def test_innermost_loops_are_lean(self, kernel, variant):
        program, _, _ = build_program(kernel, variant, tile=4)
        loops = _innermost_loops(CompiledProgram(program, trace=True).source)
        assert loops
        for body in loops:
            # Static costs are added once on entry to each block, one
            # statement per counter.
            previous, run = "{", []
            for stmt in body:
                if _COUNTER.fullmatch(stmt):
                    assert previous.endswith("{") or _COUNTER.fullmatch(previous), stmt
                    run.append(_COUNTER.fullmatch(stmt).group(1))
                    assert len(set(run)) == len(run), run
                else:
                    run = []
                previous = stmt
            text = "\n".join(body)
            assert set(re.findall(r"(\w+)\(", text)) <= _LEAN_CALLS, text
            # Every stride product reads a subscript computed in the loop.
            local = set(re.findall(r"const int64_t (t\d+) =", text))
            for tmp in re.findall(r"s\d+_\d+ \* \((t\d+) - 1\)", text):
                assert tmp in local, text

    def test_lu_update_loop(self):
        """``A(i,j) = A(i,j) - A(i,k)*A(k,j)``: four memory events, one
        store, no branch, and one cost statement per counter."""
        program, _, _ = build_program("lu", "seq")
        update_stmt = re.compile(
            r"v_A\[t\d+\] = \(v_A\[t\d+\] - \(v_A\[t\d+\] \* v_A\[t\d+\]\)\);"
        )
        loops = _innermost_loops(CompiledProgram(program, trace=True).source)
        (update,) = [b for b in loops if any(update_stmt.fullmatch(s) for s in b)]
        assert sum(s.startswith("MEM(") for s in update) == 4
        assert sum(s.startswith("v_A[") for s in update) == 1
        assert not any(s.startswith("if (") for s in update)
        assert [s for s in update if _COUNTER.fullmatch(s)] == [
            "c_loads += 3;",
            "c_stores += 1;",
            "c_flops += 2;",
            "c_intops += 10;",
            "c_loop_iters += 1;",
        ]


#: engine name -> run(program, params, inputs, trace=...)
_ENGINES = {"compiled": run_compiled, "interp": run_interpreted}
_NAN_FIRST = {"A": np.array([np.nan, 1.0])}


def _scalar_prog(*body):
    """Scalars s (real) and m (integer) over one input array A(2)."""
    return Program(
        "sem",
        ("N",),
        (ArrayDecl("A", (val(2),)),),
        (ScalarDecl("s"), ScalarDecl("m", "i8")),
        tuple(body),
    )


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize(
    "body,expected",
    [
        pytest.param([assign("s", fmax(idx("A", 1), idx("A", 2)))], {"s": math.nan},
                     id="max-nan-first"),
        pytest.param([assign("s", fmax(idx("A", 2), idx("A", 1)))], {"s": 1.0},
                     id="max-nan-second"),
        pytest.param([assign("s", fmin(idx("A", 1), idx("A", 2)))], {"s": math.nan},
                     id="min-nan-first"),
        pytest.param([assign("s", fmin(idx("A", 2), idx("A", 1)))], {"s": 1.0},
                     id="min-nan-second"),
        pytest.param([assign("s", fmax(idx("A", 2), idx("A", 1), val(3.0)))], {"s": 3.0},
                     id="max-folds-left"),
        pytest.param([assign("s", N / 2)], {"s": 3.5}, id="integer-true-division"),
        pytest.param([assign("s", idx("A", 2) / 0.0)], "float division by zero",
                     id="divide-by-zero"),
        pytest.param([assign("s", idx("A", 2) / -0.0)], "float division by zero",
                     id="divide-by-negative-zero"),
        pytest.param([assign("s", N / 0)], "division by zero", id="integer-divide-by-zero"),
        pytest.param([assign("s", sqrt(val(-1.0)))], "math domain error",
                     id="sqrt-negative"),
        pytest.param([assign("s", sqrt(val(-0.0)))], {"s": -0.0}, id="sqrt-negative-zero"),
        pytest.param([assign("m", -N), assign("m", fabs(sym("m")))], {"m": 7},
                     id="abs-of-integer"),
        pytest.param([assign("m", N * 2), assign("s", N * 0.5)], {"m": 14, "s": 3.5},
                     id="scalar-types"),
        pytest.param([assign("s", fmax(idx("A", 2), N, idx("A", 1)))], {"s": 7.0},
                     id="real-scalar-keeps-its-type"),
    ],
)
def test_python_semantics(engine, body, expected):
    """Every rule the C keeps from Python, through both engines: the
    values (NaN and the sign of zero included) and the types of the
    returned scalars, or the runtime failure."""
    run = _ENGINES[engine]
    program = _scalar_prog(*body)
    if isinstance(expected, str):
        with pytest.raises(ExecutionError, match=expected):
            run(program, {"N": 7}, _NAN_FIRST)
        return
    scalars = run(program, {"N": 7}, _NAN_FIRST).scalars
    for name, want in expected.items():
        assert type(scalars[name]) is type(want), (name, scalars[name])
        assert repr(scalars[name]) == repr(want), (name, scalars[name])
    defaults = {"s": 0.0, "m": 0}
    for name in defaults.keys() - expected.keys():
        assert repr(scalars[name]) == repr(defaults[name])


class TestRuntimeChecks:
    """What the oracle rejects, the compiled engine rejects too, traced or
    not, with an ExecutionError."""

    @pytest.mark.parametrize("engine", sorted(_ENGINES))
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("step", [-1, 0])
    def test_non_positive_step(self, engine, trace, step):
        body = loop("i", N, 1, [assign(idx("A", i), 1.0)], step=step)
        with pytest.raises(ExecutionError, match=f"non-positive loop step {step}"):
            _ENGINES[engine](prog([body]), {"N": 5}, trace=trace)

    def test_step_is_evaluated_at_run_time(self):
        body = loop("i", 1, N, [assign(idx("A", i), 1.0)], step=sym("K"))
        program = prog([body], params=("N", "K"))
        assert list(run_compiled(program, {"N": 5, "K": 2}).arrays["A"]) == [1, 0, 1, 0, 1]
        with pytest.raises(ExecutionError, match="non-positive loop step -2"):
            run_compiled(program, {"N": 5, "K": -2})

    @pytest.mark.parametrize("engine", sorted(_ENGINES))
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize(
        "stmt,bad",
        [
            pytest.param(assign(idx("B", i), idx("A", i - 1)), "subscript 0 out of bounds "
                         r"1\.\.5 in A\(i - 1\)", id="read-below"),
            pytest.param(assign(idx("B", i + 1), idx("A", i)), "subscript 6 out of bounds "
                         r"1\.\.5 in B\(i \+ 1\)", id="write-above"),
        ],
    )
    def test_subscript_out_of_bounds(self, engine, trace, stmt, bad):
        program = prog([loop("i", 1, N, [stmt])], arrays=(("A", 1), ("B", 1)))
        a0 = np.arange(1.0, 6.0)
        with pytest.raises(ExecutionError, match=bad):
            _ENGINES[engine](program, {"N": 5}, {"A": a0}, trace=trace)

    @pytest.mark.parametrize("engine", sorted(_ENGINES))
    def test_real_subscript(self, engine):
        # i / 2 is real: the compiled engine rejects it when it compiles,
        # the oracle when the value is not integral.
        program = prog([loop("i", 1, N, [assign(idx("A", i / 2), 1.0)])])
        with pytest.raises(ExecutionError):
            _ENGINES[engine](program, {"N": 4})

    def test_rejections_name_the_construct(self):
        with pytest.raises(ExecutionError, match=r"subscript of A\(i/2\)"):
            CompiledProgram(prog([loop("i", 1, N, [assign(idx("A", i / 2), 1.0)])]))
        with pytest.raises(ExecutionError, match="integer m assigned the real"):
            CompiledProgram(_scalar_prog(assign("m", sqrt(N))))
        with pytest.raises(ExecutionError, match="loop bound"):
            CompiledProgram(prog([loop("i", 1, N / 2, [assign(idx("A", i), 1.0)])]))


def test_names_of_the_generated_code_are_free():
    """Every IR name is emitted with one prefix, so names the generated C
    uses itself, C keywords and underscore names all compile."""
    out, t1, flush = sym("out"), sym("t1"), sym("flush")
    program = Program(
        "names",
        ("out", "_ma"),
        (ArrayDecl("double", (out,)), ArrayDecl("mem", (out, out))),
        (ScalarDecl("t1"), ScalarDecl("cap", "i8")),
        (
            loop("flush", 1, out, [
                assign(idx("double", flush), flush * sym("_ma")),
                loop("int", 1, flush, [
                    assign(idx("mem", sym("int"), flush), idx("double", sym("int"))),
                    assign("cap", sym("cap") + 1),
                ]),
                assign("t1", t1 + idx("double", flush)),
            ]),
        ),
    )
    compiled, _ = crosscheck_traces(program, {"out": 4, "_ma": 3})
    assert compiled.scalars == {"t1": 30.0, "cap": 10}


class _Boom(Exception):
    pass


class _FailingSink:
    def feed(self, chunk):
        raise _Boom(len(chunk))


def test_sink_exception_crosses_the_kernel_unchanged():
    body = loop("i", 1, N, [assign(idx("A", i), idx("A", i) + 1.0)])
    cp = CompiledProgram(prog([body]), trace=True)
    with pytest.raises(_Boom) as raised:
        cp.run_streaming({"N": 10}, memory_sink=_FailingSink(), chunk_events=4)
    assert raised.value.args == (4,)  # the first full chunk
    with pytest.raises(_Boom):  # and a tail that never filled a chunk
        cp.run_streaming({"N": 10}, memory_sink=_FailingSink(), chunk_events=64)


class TestBuilds:
    """Construction emits C and builds nothing; each source is built once
    per process, traced and untraced alike, and :func:`build` batches."""

    @pytest.fixture
    def builds(self):
        telemetry.reset()
        telemetry.enable()
        yield lambda: [s for s in telemetry.spans() if s.name == "exec.compile"]
        telemetry.disable()
        telemetry.reset()

    @staticmethod
    def fresh(tag: float) -> Program:
        """A program no other test builds (the tag is in its text)."""
        return prog([loop("i", 1, N, [assign(idx("A", i), idx("A", i) + tag)])])

    def test_first_run_builds_once(self, builds):
        program = self.fresh(7.0625)
        traced = CompiledProgram(program, trace=True)
        untraced = CompiledProgram(program)
        assert traced.source == untraced.source
        assert builds() == []
        traced.run({"N": 3})
        untraced.run({"N": 3})
        CompiledProgram(program).run({"N": 3})
        [span] = builds()
        assert span.attrs["programs"] == 1 and span.attrs["cached"] is False
        assert span.attrs["compile_wall_s"] > 0 and span.attrs["compile_cpu_s"] >= 0

    def test_batch_is_one_compiler_call(self, builds):
        engines = [CompiledProgram(self.fresh(tag)) for tag in (7.125, 7.1875, 7.25)]
        build(engines + engines[:1])
        for cp in engines:
            cp.run({"N": 2})
        [span] = builds()
        assert span.attrs["programs"] == 3
