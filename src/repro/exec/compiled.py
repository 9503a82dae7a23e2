"""IR -> Python compilation.

The hot path of every experiment is executing a kernel while recording its
memory-access and branch traces. A tree-walking interpreter pays dispatch
overhead on every node; instead we compile the IR once into a Python
function and call it per run. The generated code executes one Python
statement per IR statement per iteration, over flat column-major Python
lists, with one encoded ``list.append`` per trace event.

Every run goes through one driver that flushes the event buffers to
:class:`~repro.machine.sinks.TraceSink` consumers in bounded NumPy
chunks: the generated code checks the buffer level at every
loop-iteration boundary and drains through the driver. A drain can
overshoot the buffer cap by one iteration's events, so memory events
coalesce, in program order, into one pending buffer: the memory sink sees
exactly ``chunk_events`` events per chunk and one shorter tail at the end
of the run. :meth:`CompiledProgram.run_streaming` exposes the sinks;
:meth:`CompiledProgram.run` feeds two
:class:`~repro.machine.sinks.MaterializeSink` instances and returns the
whole trace as one :class:`~repro.exec.events.TraceBuffers`.

Cost accounting model (documented in DESIGN.md):

- array element load/store: 1 load/store event + ``rank`` integer address
  ops (+ the arithmetic inside the subscripts, counted as intops);
- scalar variables live in registers: no memory events;
- arithmetic outside subscripts: 1 flop per operator/intrinsic;
- every ``if`` evaluation: 1 branch event (site-tagged, taken bit);
- every loop iteration: 1 loop_iter + 2 intops (increment, bound check).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.errors import RUNTIME_FAILURES, ExecutionError
from repro.exec.events import (
    DEFAULT_CHUNK_EVENTS,
    Counters,
    RunResult,
    TraceBuffers,
    check_addressable,
    evaluate_extents,
    memory_event_base,
)
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cmp,
    Const,
    Expr,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Select,
    UnOp,
    VarRef,
)
from repro.ir.program import Program
from repro.ir.stmt import Assign, If, Loop, Stmt

_CMP_PY = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

def _py(name: str) -> str:
    """IR identifier as a safe Python identifier (keywords get a suffix)."""
    import keyword

    return name + "_kw" if keyword.iskeyword(name) else name


class _Costs:
    """Static per-block operation counts accumulated during codegen."""

    __slots__ = ("loads", "stores", "flops", "intops", "branches", "loop_iters")

    def __init__(self) -> None:
        self.loads = self.stores = self.flops = 0
        self.intops = self.branches = self.loop_iters = 0

    def emit(self, lines: list[str], indent: str) -> None:
        for name in ("loads", "stores", "flops", "intops", "branches", "loop_iters"):
            n = getattr(self, name)
            if n:
                lines.append(f"{indent}_c_{name} += {n}")


class _Codegen:
    """Generates the body of the compiled kernel function."""

    def __init__(self, program: Program, trace: bool):
        self.program = program
        self.trace = trace
        self.array_ids = {a.name: i for i, a in enumerate(program.arrays)}
        self.branch_sites: dict[int, str] = {}
        self._tmp = 0
        self.lines: list[str] = []

    # -- helpers ----------------------------------------------------------
    def fresh(self, base: str) -> str:
        self._tmp += 1
        return f"_{base}{self._tmp}"

    def _site(self, cond: Expr) -> int:
        site = len(self.branch_sites)
        self.branch_sites[site] = str(cond)
        return site

    def _linear_index(
        self, ref: ArrayRef, lines: list[str], indent: str, costs: _Costs
    ) -> str:
        """Emit computation of the flat (column-major) element index."""
        parts = []
        for d, sub in enumerate(ref.indices):
            code = self._expr(sub, lines, indent, costs, in_subscript=True)
            stride = f"_s_{ref.name}_{d}"
            parts.append(f"(({code})-1)" if d == 0 else f"{stride}*(({code})-1)")
        costs.intops += len(ref.indices)
        tmp = self.fresh("l")
        lines.append(f"{indent}{tmp} = {' + '.join(parts)}")
        return tmp

    # -- expressions ----------------------------------------------------------
    def _expr(
        self,
        expr: Expr,
        lines: list[str],
        indent: str,
        costs: _Costs,
        *,
        in_subscript: bool = False,
    ) -> str:
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, VarRef):
            return _py(expr.name)
        if isinstance(expr, ArrayRef):
            lin = self._linear_index(expr, lines, indent, costs)
            costs.loads += 1
            if self.trace:
                code = memory_event_base(self.array_ids[expr.name], False)
                lines.append(f"{indent}_ma({code} + {lin})")
            return f"{_py(expr.name)}[{lin}]"
        if isinstance(expr, BinOp):
            lhs = self._expr(expr.lhs, lines, indent, costs, in_subscript=in_subscript)
            rhs = self._expr(expr.rhs, lines, indent, costs, in_subscript=in_subscript)
            if in_subscript:
                costs.intops += 1
            else:
                costs.flops += 1
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, UnOp):
            inner = self._expr(expr.operand, lines, indent, costs, in_subscript=in_subscript)
            if in_subscript:
                costs.intops += 1
            else:
                costs.flops += 1
            return f"(-{inner})"
        if isinstance(expr, Call):
            args = [
                self._expr(a, lines, indent, costs, in_subscript=in_subscript)
                for a in expr.args
            ]
            costs.flops += 1
            if expr.func == "sqrt":
                return f"_sqrt({args[0]})"
            if expr.func == "abs":
                return f"abs({args[0]})"
            return f"{expr.func}({', '.join(args)})"
        if isinstance(expr, Cmp):
            lhs = self._expr(expr.lhs, lines, indent, costs, in_subscript=in_subscript)
            rhs = self._expr(expr.rhs, lines, indent, costs, in_subscript=in_subscript)
            costs.intops += 1
            return f"({lhs} {_CMP_PY[expr.op]} {rhs})"
        if isinstance(expr, LogicalAnd):
            parts = [
                self._expr(a, lines, indent, costs, in_subscript=in_subscript)
                for a in expr.args
            ]
            return "(" + " and ".join(parts) + ")"
        if isinstance(expr, LogicalOr):
            parts = [
                self._expr(a, lines, indent, costs, in_subscript=in_subscript)
                for a in expr.args
            ]
            return "(" + " or ".join(parts) + ")"
        if isinstance(expr, LogicalNot):
            inner = self._expr(expr.arg, lines, indent, costs, in_subscript=in_subscript)
            return f"(not {inner})"
        if isinstance(expr, Select):
            return self._select(expr, lines, indent, costs)
        raise ExecutionError(f"cannot compile expression {expr!r}")

    def _select(self, expr: Select, lines: list[str], indent: str, costs: _Costs) -> str:
        """Expression conditional with per-arm dynamic cost accounting."""
        cond = self._expr(expr.cond, lines, indent, costs)
        tmp_c = self.fresh("sc")
        tmp_v = self.fresh("sv")
        lines.append(f"{indent}{tmp_c} = {cond}")
        costs.branches += 1
        if self.trace:
            site = self._site(expr.cond)
            lines.append(f"{indent}_ba({site * 2} + (1 if {tmp_c} else 0))")
        lines.append(f"{indent}if {tmp_c}:")
        arm_costs = _Costs()
        arm_lines: list[str] = []
        val = self._expr(expr.if_true, arm_lines, indent + "    ", arm_costs)
        lines.extend(arm_lines)
        arm_costs.emit(lines, indent + "    ")
        lines.append(f"{indent}    {tmp_v} = {val}")
        lines.append(f"{indent}else:")
        arm_costs = _Costs()
        arm_lines = []
        val = self._expr(expr.if_false, arm_lines, indent + "    ", arm_costs)
        lines.extend(arm_lines)
        arm_costs.emit(lines, indent + "    ")
        lines.append(f"{indent}    {tmp_v} = {val}")
        return tmp_v

    # -- statements --------------------------------------------------------
    def _block(self, stmts: tuple[Stmt, ...], indent: str, extra: _Costs | None = None) -> None:
        """Emit a statement block, merging static costs of straight-line runs."""
        costs = extra if extra is not None else _Costs()
        pending: list[str] = []

        def flush() -> None:
            nonlocal costs, pending
            self.lines.extend(pending)
            costs.emit(self.lines, indent)
            pending = []
            costs = _Costs()

        for stmt in stmts:
            if isinstance(stmt, Assign):
                self._assign(stmt, pending, indent, costs)
            elif isinstance(stmt, If):
                self._if(stmt, pending, indent, costs)
                flush()
            elif isinstance(stmt, Loop):
                flush()
                self._loop(stmt, indent)
            else:
                raise ExecutionError(f"cannot compile statement {stmt!r}")
        flush()

    def _assign(self, stmt: Assign, lines: list[str], indent: str, costs: _Costs) -> None:
        value = self._expr(stmt.value, lines, indent, costs)
        target = stmt.target
        if isinstance(target, VarRef):
            lines.append(f"{indent}{_py(target.name)} = {value}")
            return
        tmp = self.fresh("v")
        lines.append(f"{indent}{tmp} = {value}")
        lin = self._linear_index(target, lines, indent, costs)
        costs.stores += 1
        if self.trace:
            code = memory_event_base(self.array_ids[target.name], True)
            lines.append(f"{indent}_ma({code} + {lin})")
        lines.append(f"{indent}{_py(target.name)}[{lin}] = {tmp}")

    def _if(self, stmt: If, lines: list[str], indent: str, costs: _Costs) -> None:
        cond = self._expr(stmt.cond, lines, indent, costs)
        costs.branches += 1
        tmp = self.fresh("c")
        lines.append(f"{indent}{tmp} = {cond}")
        if self.trace:
            site = self._site(stmt.cond)
            lines.append(f"{indent}_ba({site * 2} + (1 if {tmp} else 0))")
        lines.append(f"{indent}if {tmp}:")
        self.lines.extend(lines)
        lines.clear()
        if stmt.then:
            mark = len(self.lines)
            self._block(stmt.then, indent + "    ")
            if len(self.lines) == mark:
                self.lines.append(f"{indent}    pass")
        else:
            self.lines.append(f"{indent}    pass")
        if stmt.orelse:
            self.lines.append(f"{indent}else:")
            self._block(stmt.orelse, indent + "    ")

    def _loop(self, stmt: Loop, indent: str) -> None:
        costs = _Costs()
        head: list[str] = []
        lo = self._expr(stmt.lower, head, indent, costs, in_subscript=True)
        hi = self._expr(stmt.upper, head, indent, costs, in_subscript=True)
        step = self._expr(stmt.step, head, indent, costs, in_subscript=True)
        self.lines.extend(head)
        costs.emit(self.lines, indent)
        if isinstance(stmt.step, Const) and stmt.step.value == 1:
            self.lines.append(f"{indent}for {_py(stmt.var)} in range({lo}, ({hi}) + 1):")
        else:
            self.lines.append(
                f"{indent}for {_py(stmt.var)} in range({lo}, ({hi}) + 1, {step}):"
            )
        if self.trace:
            # Flush point: between iterations the event buffers may be
            # drained to the trace sinks. The guard is one len()+compare
            # per iteration, leaving the per-event path a bare append.
            self.lines.append(
                f"{indent}    if len(_mem) >= _cap or len(_bra) >= _cap: _flush()"
            )
        body_costs = _Costs()
        body_costs.loop_iters += 1
        body_costs.intops += 2
        self._block(stmt.body, indent + "    ", extra=body_costs)

    # -- whole function -------------------------------------------------------
    def generate(self) -> str:
        p = self.program
        ind = "    "
        out: list[str] = [
            "def _kernel(_params, _arrays, _exts, _mem, _bra, _cap, _flush):"
        ]
        out.append(f"{ind}_sqrt = _math.sqrt")
        for name in p.params:
            out.append(f"{ind}{_py(name)} = _params[{name!r}]")
        for a in p.arrays:
            out.append(f"{ind}{_py(a.name)} = _arrays[{a.name!r}]")
            for d in range(a.rank - 1):
                # stride of dimension d+1 = product of extents 0..d
                prod = "*".join(f"_exts[{a.name!r}][{e}]" for e in range(d + 1))
                out.append(f"{ind}_s_{a.name}_{d + 1} = {prod}")
        for s in p.scalars:
            init = "0" if s.dtype == "i8" else "0.0"
            out.append(f"{ind}{_py(s.name)} = {init}")
        if self.trace:
            out.append(f"{ind}_ma = _mem.append")
            out.append(f"{ind}_ba = _bra.append")
        out.append(
            f"{ind}_c_loads = _c_stores = _c_flops = _c_intops = "
            f"_c_branches = _c_loop_iters = 0"
        )
        self.lines = []
        self._block(p.body, ind)
        out.extend(self.lines or [f"{ind}pass"])
        scalar_dict = ", ".join(f"{s.name!r}: {_py(s.name)}" for s in p.scalars)
        out.append(
            f"{ind}return (_c_loads, _c_stores, _c_flops, _c_intops, "
            f"_c_branches, _c_loop_iters, {{{scalar_dict}}})"
        )
        return "\n".join(out)


class CompiledProgram:
    """A program compiled to a Python callable.

    Compile once, run many times with different parameters/inputs::

        cp = CompiledProgram(program, trace=True)
        result = cp.run({"N": 64}, {"A": a0})
    """

    # Constants for their only reader, perfbench/tracer.py: its per-layer
    # metrics include block-loop and fallback counts, always zero here.
    loop_tiers: tuple = ()
    block_loops = 0
    fallbacks = namedtuple("Fallbacks", "guard_rejected below_min_trip")(0, 0)

    def __init__(self, program: Program, *, trace: bool = False):
        self.program = program
        self.trace = trace
        with telemetry.span("exec.compile", program=program.name):
            gen = _Codegen(program, trace)
            self.source = gen.generate()
            self.array_ids = gen.array_ids
            self.branch_sites = gen.branch_sites
            namespace: dict = {"_math": math}
            exec(compile(self.source, f"<repro:{program.name}>", "exec"), namespace)
            self._fn = namespace["_kernel"]

    def _prepare(
        self,
        params: Mapping[str, int],
        inputs: Mapping[str, np.ndarray] | None,
    ) -> tuple[dict[str, tuple[int, ...]], dict[str, list[float]]]:
        """Evaluate extents, validate trace addressability, seed storage:
        one flat column-major Python list per array."""
        inputs = inputs or {}
        p = self.program
        missing = set(p.params) - set(params)
        if missing:
            raise ExecutionError(f"missing parameters: {sorted(missing)}")
        exts: dict[str, tuple[int, ...]] = {}
        storage: dict[str, list[float]] = {}
        for a in p.arrays:
            shape = evaluate_extents(a.extents, params)
            exts[a.name] = shape
            size = int(np.prod(shape))
            if self.trace:
                check_addressable(p.name, a.name, size)
            given = inputs.get(a.name)
            if given is not None:
                arr = np.asarray(given, dtype=np.float64)
                if arr.shape != shape:
                    raise ExecutionError(
                        f"input {a.name} has shape {arr.shape}, expected {shape}"
                    )
                storage[a.name] = arr.flatten(order="F").tolist()
            else:
                storage[a.name] = [0.0] * size
        return exts, storage

    def _drive(
        self,
        params: Mapping[str, int],
        inputs: Mapping[str, np.ndarray] | None,
        memory_sink,
        branch_sink,
        chunk_events: int,
    ) -> RunResult:
        """The one execution path behind :meth:`run` and
        :meth:`run_streaming`: seed storage, call the generated kernel
        with buffers that drain through the sinks, package the result
        (``trace=None``)."""
        exts, storage = self._prepare(params, inputs)
        mem: list[int] = []
        bra: list[int] = []
        # Memory events waiting for a full chunk, in program order.
        pending: list[np.ndarray] = []
        pending_n = 0

        def push(events: np.ndarray) -> None:
            """Queue memory events; feed every completed chunk."""
            nonlocal pending_n
            n = len(events)
            if pending_n + n < chunk_events:
                pending.append(events)
                pending_n += n
                return
            off = 0
            if pending:
                off = chunk_events - pending_n
                pending.append(events[:off])
                memory_sink.feed(np.concatenate(pending))
                pending.clear()
            stop = off + (n - off) // chunk_events * chunk_events
            for lo in range(off, stop, chunk_events):
                memory_sink.feed(events[lo : lo + chunk_events])
            # Copy the tail so the drained buffer is not kept alive.
            pending_n = n - stop
            if pending_n:
                pending.append(events[stop:].copy())

        def flush() -> None:
            if mem:
                if memory_sink is not None:
                    push(np.asarray(mem, dtype=np.int64))
                mem.clear()
            if bra:
                if branch_sink is not None:
                    branch_sink.feed(np.asarray(bra, dtype=np.int64))
                bra.clear()

        # Every sink feed happens inside the span, so the span tree nests
        # the sinks under it and its self time is trace production.
        with telemetry.span("exec.run", program=self.program.name):
            try:
                (loads, stores, flops, intops, branches, iters, scalars) = self._fn(
                    dict(params), storage, exts, mem, bra, chunk_events, flush
                )
            except RUNTIME_FAILURES as exc:
                raise ExecutionError(
                    f"runtime failure in {self.program.name}: {exc}"
                ) from exc
            flush()  # tail events after the last loop boundary
            if pending:
                memory_sink.feed(np.concatenate(pending))
        return RunResult(
            arrays={
                name: np.asarray(vals, dtype=np.float64).reshape(exts[name], order="F")
                for name, vals in storage.items()
            },
            scalars=scalars,
            counters=Counters(loads, stores, flops, intops, branches, iters),
            array_ids=dict(self.array_ids),
            branch_sites=dict(self.branch_sites),
        )

    def run(
        self,
        params: Mapping[str, int],
        inputs: Mapping[str, np.ndarray] | None = None,
    ) -> RunResult:
        """Execute under *params*, seeding arrays from *inputs* (column-major
        flattening); missing arrays start at zero.

        Materializes the full trace when tracing is enabled — peak memory
        grows with the event count. Use :meth:`run_streaming` to replay
        the trace through sinks in bounded memory instead.
        """
        from repro.machine.sinks import MaterializeSink

        mem_sink, bra_sink = MaterializeSink(), MaterializeSink()
        result = self._drive(
            params, inputs, mem_sink, bra_sink, DEFAULT_CHUNK_EVENTS
        )
        if self.trace:
            result.trace = TraceBuffers(mem_sink.finish(), bra_sink.finish())
        return result

    def run_streaming(
        self,
        params: Mapping[str, int],
        inputs: Mapping[str, np.ndarray] | None = None,
        *,
        memory_sink=None,
        branch_sink=None,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> RunResult:
        """Execute while streaming encoded events through trace sinks.

        ``memory_sink`` / ``branch_sink`` receive 1-D ``int64`` chunks of
        encoded events (see :mod:`repro.exec.events`) in program order;
        a ``None`` sink discards its stream. The returned
        :class:`~repro.exec.events.RunResult` carries arrays, scalars and
        counters but ``trace=None`` — the trace only ever existed as
        chunks. The caller owns the sinks' lifecycle and calls their
        ``finish()`` afterwards.

        Every memory chunk has exactly ``chunk_events`` events except the
        last, which holds the run's remainder: drained buffers join one
        pending buffer in program order, and only completed slices reach
        ``memory_sink``. Branch chunks are at most
        ``chunk_events`` plus the events of one innermost loop iteration
        (the flush guard sits at iteration boundaries).
        """
        if not self.trace:
            raise ExecutionError("run_streaming() needs a traced program (trace=True)")
        if chunk_events <= 0:
            raise ExecutionError(f"chunk_events must be positive, got {chunk_events}")
        return self._drive(params, inputs, memory_sink, branch_sink, chunk_events)


def run_compiled(
    program: Program,
    params: Mapping[str, int],
    inputs: Mapping[str, np.ndarray] | None = None,
    *,
    trace: bool = False,
) -> RunResult:
    """One-shot compile + run."""
    return CompiledProgram(program, trace=trace).run(params, inputs)
