"""IR -> Python compilation.

The hot path of every experiment is executing a kernel while recording its
memory-access and branch traces. A tree-walking interpreter pays dispatch
overhead on every node; instead we compile the IR once into a Python
function and call it per run. The generated code executes one Python
statement per IR statement per iteration, over flat column-major Python
lists, with one encoded ``list.append`` per trace event.

An innermost loop runs little more than its subscript arithmetic, its
trace appends and its real computation. The code generator applies the
two classic scalar optimisations to its own loops, without changing any
event or counter:

- *loop-invariant code motion*: a loop body's unconditional static costs
  are added once per loop entry, as ``n * len(range)``, and a
  linear-index term that reads nothing the loop binds or assigns is
  computed once before the outermost loop it is invariant in (only terms
  of ``+ - *`` over variables, so a zero-trip loop cannot raise anything
  new);
- *common-subexpression elimination*: within one straight-line run a
  repeated subscript reuses its index temporary; each branch arm keeps its
  own, and a scalar assignment forgets them all.

Generated names start with ``_``, so IR identifiers may not.

Every run goes through one driver that flushes the event buffers to
:class:`~repro.machine.sinks.TraceSink` consumers in bounded NumPy
chunks: the generated code checks the buffer level at the top of every
iteration of the outermost loop and of every loop that contains a loop,
and drains through the driver. An innermost loop runs without a check,
so a drain can overshoot the buffer cap by one iteration of the loop
around it, whole innermost loops included. Memory events therefore
coalesce, in program order, into one pending buffer: the memory sink
sees exactly ``chunk_events`` events per chunk and one shorter tail at
the end of the run. :meth:`CompiledProgram.run_streaming` exposes the
sinks; :meth:`CompiledProgram.run` feeds two
:class:`~repro.machine.sinks.MaterializeSink` instances and returns the
whole trace as one :class:`~repro.exec.events.TraceBuffers`.

Cost accounting model (documented in DESIGN.md):

- array element load/store: 1 load/store event + ``rank`` integer address
  ops (+ the arithmetic inside the subscripts, counted as intops);
- scalar variables live in registers: no memory events;
- arithmetic outside subscripts: 1 flop per operator/intrinsic;
- every ``if`` evaluation: 1 branch event (site-tagged, taken bit);
- every loop iteration: 1 loop_iter + 2 intops (increment, bound check).

The counts are the IR's, not the generated code's: a hoisted or reused
index still costs its intops at every reference.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import fields
from functools import partial
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

#: The fields of :class:`~repro.exec.events.Counters`, in order.
_COUNTERS = tuple(f.name for f in fields(Counters))


def _py(name: str) -> str:
    """IR identifier as a safe Python identifier (keywords get a suffix)."""
    import keyword

    return name + "_kw" if keyword.iskeyword(name) else name


def _reject_reserved_names(program: Program) -> None:
    """Generated code owns every name that starts with ``_`` (buffers,
    counters, temporaries); an IR name there could shadow one of them."""
    reserved = sorted(n for n in program.all_names() if n.startswith("_"))
    if reserved:
        raise ExecutionError(
            f"{program.name}: identifier {reserved[0]!r} starts with '_', "
            f"which generated code reserves"
        )


def _pure_reads(expr: Expr) -> frozenset[str] | None:
    """The names *expr* reads if it is only ``+ - *`` over constants and
    variables, so that evaluating it early cannot raise; else ``None``."""
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, VarRef):
        return frozenset((expr.name,))
    if isinstance(expr, UnOp):
        return _pure_reads(expr.operand)
    if isinstance(expr, BinOp) and expr.op != "/":
        lhs, rhs = _pure_reads(expr.lhs), _pure_reads(expr.rhs)
        if lhs is not None and rhs is not None:
            return lhs | rhs
    return None


def _loop_writes(stmts: tuple[Stmt, ...], out: dict[int, set[str]]) -> set[str]:
    """The names *stmts* bind or assign; stores each loop's own set in
    *out*, keyed by the loop's ``id``."""
    names: set[str] = set()
    for s in stmts:
        if isinstance(s, Assign) and isinstance(s.target, VarRef):
            names.add(s.target.name)
        elif isinstance(s, If):
            names |= _loop_writes(s.then, out) | _loop_writes(s.orelse, out)
        elif isinstance(s, Loop):
            inner = out[id(s)] = _loop_writes(s.body, out) | {s.var}
            names |= inner
    return names


class _Costs:
    """Static operation counts of one block, accumulated during codegen."""

    __slots__ = _COUNTERS

    def __init__(self) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)

    def lines(self, indent: str, times: str | None = None) -> list[str]:
        """Statements adding the counts to the counters, *times* over."""
        out = []
        for name in _COUNTERS:
            n = getattr(self, name)
            if not n:
                continue
            if times is None:
                inc = str(n)
            elif n == 1:
                inc = times
            else:
                inc = f"{n} * {times}"
            out.append(f"{indent}_c_{name} += {inc}")
        return out


class _Block:
    """One indented block of generated code: its lines, its static costs,
    and the linear-index temporaries its straight-line code may reuse
    (keyed by index expression)."""

    __slots__ = ("indent", "lines", "costs", "cse")

    def __init__(self, indent: str, cse: Mapping[str, str] | None = None):
        self.indent = indent
        self.lines: list[str] = []
        self.costs = _Costs()
        self.cse = dict(cse or {})

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def arm(self) -> "_Block":
        """A branch arm: it may reuse this block's temporaries, but the
        ones it defines stay its own."""
        return _Block(self.indent + "    ", self.cse)

    def close(self) -> list[str]:
        """The block's code, its static costs counted once on entry."""
        return self.costs.lines(self.indent) + (self.lines or [self.indent + "pass"])


class _Frame:
    """A loop being generated: the names bound before it, the names its
    body binds or assigns, and the invariant subscript terms computed once
    before it."""

    __slots__ = ("var", "bound", "written", "hoisted", "terms")

    def __init__(self, var: str, bound: frozenset[str], written: set[str]):
        self.var = var
        self.bound = bound
        self.written = written
        self.hoisted: list[str] = []
        self.terms: dict[str, str] = {}

    def hoist(self, code: str, fresh) -> str:
        """The temporary holding *code*, computed before the loop."""
        tmp = self.terms.get(code)
        if tmp is None:
            tmp = self.terms[code] = fresh("h")
            self.hoisted.append(f"{tmp} = {code}")
        return tmp


class _Codegen:
    """Generates the body of the compiled kernel function."""

    def __init__(self, program: Program, trace: bool):
        _reject_reserved_names(program)
        self.program = program
        self.trace = trace
        self.array_ids = {a.name: i for i, a in enumerate(program.arrays)}
        self.branch_sites: dict[int, str] = {}
        self._tmp = 0
        #: Names bound throughout the kernel.
        self.globals = frozenset(program.params) | {s.name for s in program.scalars}
        #: The loops around the code being generated, outermost first.
        self.frames: list[_Frame] = []
        #: ``id`` of each loop -> the names its body binds or assigns.
        self.writes: dict[int, set[str]] = {}
        _loop_writes(program.body, self.writes)
        #: Loops generated so far: a loop that generated others is guarded.
        self._loops = 0

    # -- helpers ----------------------------------------------------------
    def fresh(self, base: str) -> str:
        self._tmp += 1
        return f"_{base}{self._tmp}"

    def _site(self, cond: Expr) -> int:
        site = len(self.branch_sites)
        self.branch_sites[site] = str(cond)
        return site

    def _event(self, array: str, is_write: bool, lin: str) -> str:
        """The encoded memory event of element *lin* of *array*."""
        base = memory_event_base(self.array_ids[array], is_write)
        return f"{base} + {lin}" if base else lin

    def _hoist_level(self, reads: frozenset[str]) -> int | None:
        """Index of the outermost enclosing loop before which every name
        in *reads* is bound and inside which none is bound or assigned."""
        for level, frame in enumerate(self.frames):
            if reads <= frame.bound and reads.isdisjoint(frame.written):
                return level
        return None

    def _linear_index(self, ref: ArrayRef, blk: _Block) -> str:
        """The flat (column-major) element index of *ref*.

        A term invariant in enclosing loops is computed before the
        outermost of them; the hoisted groups chain, so the innermost one
        carries every invariant term. A repeated pure index reuses its
        temporary within one straight-line run."""
        blk.costs.intops += len(ref.indices)
        inline: list[str] = []
        hoisted: dict[int, list[str]] = {}
        pure = True
        for d, sub in enumerate(ref.indices):
            code = self._expr(sub, blk, in_subscript=True)
            term = f"(({code})-1)" if d == 0 else f"_s_{ref.name}_{d}*(({code})-1)"
            reads = _pure_reads(sub)
            pure = pure and reads is not None
            level = None if reads is None else self._hoist_level(reads)
            if level is None:
                inline.append(term)
            else:
                hoisted.setdefault(level, []).append(term)
        outer: list[str] = []
        for level in sorted(hoisted):
            code = " + ".join(outer + hoisted[level])
            outer = [self.frames[level].hoist(code, self.fresh)]
        if not inline:
            return outer[0]
        code = " + ".join(inline + outer)
        if pure and code in blk.cse:
            return blk.cse[code]
        tmp = self.fresh("l")
        blk.emit(f"{tmp} = {code}")
        if pure:
            blk.cse[code] = tmp
        return tmp

    # -- expressions ----------------------------------------------------------
    def _expr(self, expr: Expr, blk: _Block, *, in_subscript: bool = False) -> str:
        costs = blk.costs
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, VarRef):
            return _py(expr.name)
        if isinstance(expr, ArrayRef):
            lin = self._linear_index(expr, blk)
            costs.loads += 1
            if self.trace:
                blk.emit(f"_ma({self._event(expr.name, False, lin)})")
            return f"{_py(expr.name)}[{lin}]"
        if isinstance(expr, BinOp):
            lhs = self._expr(expr.lhs, blk, in_subscript=in_subscript)
            rhs = self._expr(expr.rhs, blk, in_subscript=in_subscript)
            if in_subscript:
                costs.intops += 1
            else:
                costs.flops += 1
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, UnOp):
            inner = self._expr(expr.operand, blk, in_subscript=in_subscript)
            if in_subscript:
                costs.intops += 1
            else:
                costs.flops += 1
            return f"(-{inner})"
        if isinstance(expr, Call):
            args = [self._expr(a, blk, in_subscript=in_subscript) for a in expr.args]
            costs.flops += 1
            if expr.func == "sqrt":
                return f"_sqrt({args[0]})"
            if expr.func == "abs":
                return f"abs({args[0]})"
            return f"{expr.func}({', '.join(args)})"
        if isinstance(expr, Cmp):
            lhs = self._expr(expr.lhs, blk, in_subscript=in_subscript)
            rhs = self._expr(expr.rhs, blk, in_subscript=in_subscript)
            costs.intops += 1
            return f"({lhs} {_CMP_PY[expr.op]} {rhs})"
        if isinstance(expr, LogicalAnd):
            parts = [self._expr(a, blk, in_subscript=in_subscript) for a in expr.args]
            return "(" + " and ".join(parts) + ")"
        if isinstance(expr, LogicalOr):
            parts = [self._expr(a, blk, in_subscript=in_subscript) for a in expr.args]
            return "(" + " or ".join(parts) + ")"
        if isinstance(expr, LogicalNot):
            inner = self._expr(expr.arg, blk, in_subscript=in_subscript)
            return f"(not {inner})"
        if isinstance(expr, Select):
            tmp = self.fresh("sv")

            def arm(value: Expr, arm_blk: _Block) -> None:
                code = self._expr(value, arm_blk)
                arm_blk.emit(f"{tmp} = {code}")

            self._branch(
                expr.cond, blk, (partial(arm, expr.if_true), partial(arm, expr.if_false))
            )
            return tmp
        raise ExecutionError(f"cannot compile expression {expr!r}")

    def _branch(self, cond: Expr, blk: _Block, arms) -> None:
        """``if cond: ... else: ...``, one site-tagged branch event first in
        each arm; ``arms`` fill the taken and the not-taken arm. Each arm
        counts its own costs when it runs."""
        code = self._expr(cond, blk)
        blk.costs.branches += 1
        site = self._site(cond) if self.trace else 0
        blk.emit(f"if {code}:")
        for taken, fill in zip((1, 0), arms):
            if not taken:
                blk.emit("else:")
            arm = blk.arm()
            if self.trace:
                arm.emit(f"_ba({site * 2 + taken})")
            fill(arm)
            blk.lines += arm.close()

    # -- statements --------------------------------------------------------
    def _block(self, stmts: tuple[Stmt, ...], blk: _Block) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                self._assign(stmt, blk)
            elif isinstance(stmt, If):
                arms = (partial(self._block, stmt.then), partial(self._block, stmt.orelse))
                self._branch(stmt.cond, blk, arms)
                blk.cse.clear()  # the arms may assign scalars
            elif isinstance(stmt, Loop):
                self._loop(stmt, blk)
                blk.cse.clear()  # the loop rebinds names
            else:
                raise ExecutionError(f"cannot compile statement {stmt!r}")

    def _assign(self, stmt: Assign, blk: _Block) -> None:
        value = self._expr(stmt.value, blk)
        target = stmt.target
        if isinstance(target, VarRef):
            blk.emit(f"{_py(target.name)} = {value}")
            blk.cse.clear()  # a reusable index may read this scalar
            return
        lin = self._linear_index(target, blk)
        blk.costs.stores += 1
        if self.trace:
            blk.emit(f"_ma({self._event(target.name, True, lin)})")
        blk.emit(f"{_py(target.name)}[{lin}] = {value}")

    def _loop(self, stmt: Loop, blk: _Block) -> None:
        """The loop's per-iteration static costs are added once, times its
        trip count, before it starts; its invariant index terms follow."""
        lo = self._expr(stmt.lower, blk, in_subscript=True)
        hi = self._expr(stmt.upper, blk, in_subscript=True)
        step = self._expr(stmt.step, blk, in_subscript=True)
        outer = self.frames[-1] if self.frames else None
        bound = outer.bound | {outer.var} if outer else self.globals
        frame = _Frame(stmt.var, bound, self.writes[id(stmt)])
        body = _Block(blk.indent + "    ")
        body.costs.loop_iters, body.costs.intops = 1, 2
        self._loops += 1
        loops = self._loops
        self.frames.append(frame)
        self._block(stmt.body, body)
        self.frames.pop()
        if self.trace and (not self.frames or self._loops > loops):
            # Flush point: the event buffers may be drained to the trace
            # sinks between iterations of the outermost loop and of loops
            # that run other loops. An innermost loop goes without, so a
            # drain may overshoot the cap by its events.
            body.lines.insert(
                0, f"{body.indent}if len(_mem) >= _cap or len(_bra) >= _cap: _flush()"
            )
        rng = self.fresh("r")
        bounds = f"{lo}, ({hi}) + 1" + ("" if stmt.has_unit_step else f", {step}")
        blk.emit(f"{rng} = range({bounds})")
        blk.emit(f"_t = len({rng})")
        blk.lines += body.costs.lines(blk.indent, "_t")
        blk.lines += [blk.indent + line for line in frame.hoisted]
        blk.emit(f"for {_py(stmt.var)} in {rng}:")
        blk.lines += body.lines

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
        out.append(f"{ind}" + " = ".join(f"_c_{name}" for name in _COUNTERS) + " = 0")
        top = _Block(ind)
        self._block(p.body, top)
        out.extend(top.close())
        scalar_dict = ", ".join(f"{s.name!r}: {_py(s.name)}" for s in p.scalars)
        counters = ", ".join(f"_c_{name}" for name in _COUNTERS)
        out.append(f"{ind}return ({counters}, {{{scalar_dict}}})")
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
                *counts, scalars = self._fn(
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
            counters=Counters(*counts),
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
        ``memory_sink``. The flush guard sits at the iteration boundaries
        of the outermost loop and of every loop that contains a loop, so
        a branch chunk may overshoot ``chunk_events`` by one iteration of
        such a loop: by whole innermost loops' events, not by one
        innermost iteration's.
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
