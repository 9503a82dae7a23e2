"""IR -> C compilation.

The hot path of every experiment is executing a kernel while recording its
memory-access and branch traces. A program compiles into the text of one C
function; construction builds nothing. Its first run builds the shared
object through :func:`repro.machine.native.build`, the machine model's
loader, and :func:`build` batches programs into one ``cc`` call. One
object serves traced and untraced runs (tracing is a run-time flag); the
arrays are column-major ``float64`` buffers. Events go into one ``int64``
buffer per stream, and a callback feeds each full buffer to its
:class:`~repro.machine.sinks.TraceSink`. A memory event is the element's
byte address ``<< 1 | is_write``: each run passes the kernel its
arrays' bases in :func:`~repro.machine.layout.layout_for_program`, so one
object serves every problem size.

The C keeps the semantics ``tests/exec/interp.py`` (the oracle) has: ``/``
is true division, ``max``/``min`` fold left keeping the first operand on
ties and NaN, and a division by zero, ``sqrt`` of a negative number, a
subscript outside its extent or a loop step ``<= 0`` raises
:class:`~repro.errors.ExecutionError`. Names are statically typed:
parameters, loop variables, ``i8`` scalars and arrays, and ``+ - *``
over them are integers, the rest is ``float64``; a subscript or loop
bound that is not an integer, or an integer assigned a real, is rejected
at construction.

Cost accounting model (documented in DESIGN.md), each block adding its
static counts when it is entered:

- array element load/store: 1 load/store event + ``rank`` integer address
  ops (+ the arithmetic inside the subscripts, counted as intops);
- scalar variables live in registers: no memory events;
- arithmetic outside subscripts: 1 flop per operator/intrinsic;
- every ``if`` evaluation: 1 branch event (site-tagged, taken bit);
- an operand of ``.and.``/``.or.`` after the first runs only when the
  operands before it leave the result open (its accesses and branches
  happen only then, as in the oracle); its arithmetic counts in full;
- every loop iteration: 1 loop_iter + 2 intops (increment, bound check).
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
from collections import namedtuple
from dataclasses import fields
from functools import partial
from typing import Iterable, Mapping

import numpy as np

from repro import telemetry
from repro.errors import ExecutionError
from repro.exec.events import (
    DEFAULT_CHUNK_EVENTS,
    Counters,
    RunResult,
    TraceBuffers,
    evaluate_extents,
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
from repro.machine import native
from repro.machine.layout import ELEMENT_BYTES, layout_for_program

#: The fields of :class:`~repro.exec.events.Counters`, in order.
_COUNTERS = tuple(f.name for f in fields(Counters))
#: The kernel's ``out`` array: the counters, the two buffer levels, a
#: failure (site, two values), then one slot per scalar (``i8`` ones are
#: stored there, real ones in ``fout`` at the same position).
_LEVELS = len(_COUNTERS)
_FAILURE = _LEVELS + 2
_OUT = _FAILURE + 3
_CTYPE = {"i": "int64_t", "f": "double"}

#: Shared by every program of one translation unit (``math.h`` is left
#: out: parsing it costs every build more than the two declarations).
#: Statement expressions keep Python's evaluation: each operand once,
#: left to right, and a failure returns from the kernel.
_PRELUDE = f"""\
#include <stdint.h>

double sqrt(double);
double fabs(double);
typedef int (*flush_fn)(int stream, int64_t n);

#define FAIL(site, a, b) do {{ out[{_FAILURE}] = (site); out[{_FAILURE + 1}] = (a); \\
    out[{_FAILURE + 2}] = (b); return 1; }} while (0)
#define BOUND(site, v, n) if ((v) < 1 || (v) > (n)) FAIL(site, v, n)
#define EVENT(stream, buf, n, code) do {{ if (trace) {{ buf[n] = (code); \\
    if (++n == cap) {{ if (flush(stream, n)) return 2; n = 0; }} }} }} while (0)
#define MEM(code) EVENT(0, mem, nm, code)
#define BRA(code) EVENT(1, bra, nb, code)
#define DIV(site, a, b) ({{ const double n_ = (a), d_ = (b); \\
    if (d_ == 0) FAIL(site, 0, 0); n_ / d_; }})
#define SQRT(site, a) ({{ const double x_ = (a); if (x_ < 0) FAIL(site, 0, 0); sqrt(x_); }})
#define IABS(a) ({{ const int64_t x_ = (a); x_ < 0 ? -x_ : x_; }})
#define MAX(T, a, b) ({{ const T a_ = (a), b_ = (b); b_ > a_ ? b_ : a_; }})
#define MIN(T, a, b) ({{ const T a_ = (a), b_ = (b); b_ < a_ ? b_ : a_; }})
"""

_FLUSH = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int, ctypes.c_int64)
_P = ctypes.c_void_p
_ARGTYPES = (_P, _P, _P, _P, _P, _P, ctypes.c_int64, ctypes.c_int, _FLUSH, _P, _P)
_NONFINITE = {"inf": "__builtin_inf()", "-inf": "(-__builtin_inf())", "nan": '__builtin_nan("")'}

#: Source digest -> loaded kernel: each source is built once per process.
_kernels: dict[str, ctypes._CFuncPtr] = {}


def _kind(expr: Expr, kinds: Mapping[str, str]) -> str:
    """``"i"`` if *expr* is integer-valued, else ``"f"``."""
    if isinstance(expr, Const):
        return "i" if isinstance(expr.value, int) else "f"
    if isinstance(expr, (VarRef, ArrayRef)):
        return kinds[expr.name]
    if isinstance(expr, BinOp) and expr.op == "/":
        return "f"
    if isinstance(expr, Call) and expr.func == "sqrt":
        return "f"
    if isinstance(expr, (Cmp, LogicalAnd, LogicalOr, LogicalNot)):
        return "i"
    parts = (expr.if_true, expr.if_false) if isinstance(expr, Select) else expr.children()
    return "i" if all(_kind(e, kinds) == "i" for e in parts) else "f"


class _Block:
    """One C block of generated code: its lines and its static costs."""

    __slots__ = ("indent", "lines", "costs")

    def __init__(self, indent: str):
        self.indent = indent
        self.lines: list[str] = []
        self.costs = dict.fromkeys(_COUNTERS, 0)

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def close(self) -> list[str]:
        """The block's code, its static costs counted once on entry."""
        return [
            f"{self.indent}c_{name} += {n};" for name, n in self.costs.items() if n
        ] + self.lines


class _Codegen:
    """Generates the C kernel function of one program. Every IR name is
    emitted as ``v_<name>``; generated names never start with ``v_``."""

    def __init__(self, program: Program):
        self.program = program
        self.array_ids = {a.name: i for i, a in enumerate(program.arrays)}
        self.branch_sites: dict[int, str] = {}
        #: Failure message -> site; the message is formatted with the
        #: site's two values.
        self.failures: dict[str, int] = {}
        self._tmp = 0
        #: name -> "i" (integer) or "f" (real) of every variable and array.
        self.kinds = {name: "i" for name in program.params}
        for decl in program.scalars + program.arrays:
            self.kinds[decl.name] = "i" if decl.dtype == "i8" else "f"
        self.loop_vars = sorted(program.loop_variables())
        for var in self.loop_vars:
            if self.kinds.setdefault(var, "i") != "i":
                self._reject(f"loop variable {var} is a real scalar")

    def fresh(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def _reject(self, why: str):
        raise ExecutionError(f"{self.program.name}: cannot compile: {why}")

    def _fail(self, message: str) -> int:
        """The failure site raising *message*."""
        return self.failures.setdefault(message, len(self.failures))

    def _integer(self, expr: Expr, blk: _Block, what: str) -> str:
        """A temporary holding integer-valued *expr*, which serves as *what*."""
        if _kind(expr, self.kinds) != "i":
            self._reject(f"{what} {expr} is not an integer")
        tmp = self.fresh()
        blk.emit(f"const int64_t {tmp} = {self._expr(expr, blk, in_subscript=True)};")
        return tmp

    def _linear_index(self, ref: ArrayRef, blk: _Block) -> str:
        """The flat (column-major) element index of *ref*, each subscript
        checked against its extent."""
        blk.costs["intops"] += len(ref.indices)
        aid = self.array_ids[ref.name]
        site = self._fail(f"subscript {{}} out of bounds 1..{{}} in {ref}")
        terms = []
        for d, sub in enumerate(ref.indices):
            tmp = self._integer(sub, blk, f"subscript of {ref}:")
            blk.emit(f"BOUND({site}, {tmp}, e{aid}_{d});")
            terms.append(f"({tmp} - 1)" if d == 0 else f"s{aid}_{d} * ({tmp} - 1)")
        lin = self.fresh()
        blk.emit(f"const int64_t {lin} = {' + '.join(terms)};")
        return lin

    def _access(self, ref: ArrayRef, blk: _Block, is_write: bool) -> str:
        """The element *ref* addresses, its memory event (the element's
        byte address ``<< 1 | is_write``) recorded."""
        lin = self._linear_index(ref, blk)
        blk.costs["stores" if is_write else "loads"] += 1
        write = " + 1" if is_write else ""
        blk.emit(f"MEM(m{self.array_ids[ref.name]} + {2 * ELEMENT_BYTES} * {lin}{write});")
        return f"v_{ref.name}[{lin}]"

    def _expr(self, expr: Expr, blk: _Block, *, in_subscript: bool = False) -> str:
        sub = partial(self._expr, blk=blk, in_subscript=in_subscript)
        if isinstance(expr, Const):
            text = repr(expr.value)
            return f"INT64_C({text})" if isinstance(expr.value, int) else _NONFINITE.get(text, text)
        if isinstance(expr, VarRef):
            return f"v_{expr.name}"
        if isinstance(expr, ArrayRef):
            element = self._access(expr, blk, False)
            return f"((int64_t){element})" if self.kinds[expr.name] == "i" else element
        if isinstance(expr, (BinOp, UnOp)):
            operands = [sub(e) for e in expr.children()]
            blk.costs["intops" if in_subscript else "flops"] += 1
            if isinstance(expr, UnOp):
                return f"(-{operands[0]})"
            if expr.op != "/":
                return f"({operands[0]} {expr.op} {operands[1]})"
            real = _kind(expr.lhs, self.kinds) + _kind(expr.rhs, self.kinds) != "ii"
            site = self._fail(("float " if real else "") + "division by zero")
            return f"DIV({site}, {operands[0]}, {operands[1]})"
        if isinstance(expr, Call):
            args = [sub(a) for a in expr.args]
            blk.costs["flops"] += 1
            kind = _kind(expr, self.kinds)
            if expr.func == "sqrt":
                return f"SQRT({self._fail('math domain error')}, {args[0]})"
            if expr.func == "abs":
                return f"fabs({args[0]})" if kind == "f" else f"IABS({args[0]})"
            acc = args[0]  # max/min fold left, as Python's do
            for arg in args[1:]:
                acc = f"{expr.func.upper()}({_CTYPE[kind]}, {acc}, {arg})"
            return acc
        if isinstance(expr, Cmp):
            lhs, rhs = sub(expr.lhs), sub(expr.rhs)
            blk.costs["intops"] += 1
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, (LogicalAnd, LogicalOr)):
            # Short-circuit: each operand after the first is a block of its
            # own that runs only while the operands before it leave the
            # result open, so its accesses, loads and branches happen only
            # then; its arithmetic is counted as if it always ran.
            tmp = self.fresh()
            blk.emit(f"int64_t {tmp} = {sub(expr.args[0])} != 0;")
            undecided = tmp if isinstance(expr, LogicalAnd) else f"!{tmp}"
            for arg in expr.args[1:]:
                blk.emit(f"if ({undecided}) {{")
                inner = _Block(blk.indent + "    ")
                inner.emit(f"{tmp} = {self._expr(arg, inner, in_subscript=in_subscript)} != 0;")
                for name in ("intops", "flops"):
                    blk.costs[name] += inner.costs[name]
                    inner.costs[name] = 0
                blk.lines += inner.close()
                blk.emit("}")
            return tmp
        if isinstance(expr, LogicalNot):
            return f"(!{sub(expr.arg)})"
        if isinstance(expr, Select):
            tmp = self.fresh()
            blk.emit(f"{_CTYPE[_kind(expr, self.kinds)]} {tmp};")

            def arm(value: Expr, arm_blk: _Block) -> None:
                arm_blk.emit(f"{tmp} = {self._expr(value, arm_blk)};")

            self._branch(
                expr.cond, blk, (partial(arm, expr.if_true), partial(arm, expr.if_false))
            )
            return tmp
        self._reject(f"expression {expr!r}")

    def _branch(self, cond: Expr, blk: _Block, arms) -> None:
        """``if (cond) {...} else {...}``, one site-tagged branch event
        first in each arm; ``arms`` fill the taken and the not-taken arm.
        Each arm counts its own costs when it runs."""
        code = self._expr(cond, blk)
        blk.costs["branches"] += 1
        site = len(self.branch_sites)
        self.branch_sites[site] = str(cond)
        blk.emit(f"if ({code}) {{")
        for taken, fill in zip((1, 0), arms):
            if not taken:
                blk.emit("} else {")
            arm = _Block(blk.indent + "    ")
            arm.emit(f"BRA({site * 2 + taken});")
            fill(arm)
            blk.lines += arm.close()
        blk.emit("}")

    def _block(self, stmts: tuple[Stmt, ...], blk: _Block) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                self._assign(stmt, blk)
            elif isinstance(stmt, If):
                arms = (partial(self._block, stmt.then), partial(self._block, stmt.orelse))
                self._branch(stmt.cond, blk, arms)
            elif isinstance(stmt, Loop):
                self._loop(stmt, blk)
            else:
                self._reject(f"statement {stmt!r}")

    def _assign(self, stmt: Assign, blk: _Block) -> None:
        value = self._expr(stmt.value, blk)
        target = stmt.target
        if self.kinds[target.name] == "i" and _kind(stmt.value, self.kinds) != "i":
            self._reject(f"integer {target} assigned the real {stmt.value}")
        if isinstance(target, VarRef):
            blk.emit(f"v_{target.name} = {value};")
        else:
            blk.emit(f"{self._access(target, blk, True)} = {value};")

    def _loop(self, stmt: Loop, blk: _Block) -> None:
        """Bounds and step are evaluated once, before the first iteration;
        the loop variable keeps its last value, as Python's ``for`` does."""
        lo = self._integer(stmt.lower, blk, "loop bound")
        hi = self._integer(stmt.upper, blk, "loop bound")
        step = self._integer(stmt.step, blk, "loop step")
        blk.emit(f"if ({step} <= 0) FAIL({self._fail('non-positive loop step {}')}, {step}, 0);")
        k = self.fresh()
        body = _Block(blk.indent + "    ")
        body.costs.update(loop_iters=1, intops=2)
        body.emit(f"v_{stmt.var} = {k};")
        self._block(stmt.body, body)
        blk.emit(f"for (int64_t {k} = {lo}; {k} <= {hi}; {k} += {step}) {{")
        blk.lines += body.close()
        blk.emit("}")

    def generate(self) -> str:
        """The kernel's parameter list and body; its name goes in front."""
        p = self.program
        decls = [
            "int64_t nm = 0, nb = 0;",
            "int64_t " + ", ".join(f"c_{name} = 0" for name in _COUNTERS) + ";",
            *(f"int64_t v_{name} = params[{i}];" for i, name in enumerate(p.params)),
        ]
        dims = 0
        for aid, a in enumerate(p.arrays):
            decls.append(f"double *const v_{a.name} = arrays[{aid}];")
            decls.append(f"const int64_t m{aid} = 2 * bases[{aid}];")
            for d in range(a.rank):
                decls.append(f"const int64_t e{aid}_{d} = exts[{dims + d}];")
                if d:
                    stride = f"s{aid}_{d - 1} * e{aid}_{d - 1}" if d > 1 else f"e{aid}_0"
                    decls.append(f"const int64_t s{aid}_{d} = {stride};")
            dims += a.rank
        decls += [f"{_CTYPE[self.kinds[s.name]]} v_{s.name} = 0;" for s in p.scalars]
        for var in sorted(set(self.loop_vars) - {s.name for s in p.scalars}):
            decls.append(f"int64_t v_{var} = 0;")
        body = _Block("    ")
        self._block(p.body, body)
        results = [
            f"out[{i}] = {'c_' * (i < _LEVELS)}{name};"
            for i, name in enumerate(_COUNTERS + ("nm", "nb"))
        ]
        for i, s in enumerate(p.scalars):
            integral = self.kinds[s.name] == "i"
            results.append(f"{'out' if integral else 'fout'}[{_OUT * integral + i}] = v_{s.name};")
        return "\n".join([
            "(const int64_t *params, double *const *arrays, const int64_t *exts,",
            "    const int64_t *bases, int64_t *mem, int64_t *bra, int64_t cap, int trace,",
            "    flush_fn flush, int64_t *out, double *fout)",
            "{",
            *("    " + line for line in decls),
            *body.close(),
            *("    " + line for line in results + ["return 0;"]),
            "}",
            "",
        ])


def build(programs: Iterable["CompiledProgram"]) -> None:
    """Build every program not yet built in this process, all in one
    ``cc`` call (one ``exec.compile`` span)."""
    todo = {cp.digest: cp for cp in programs if cp.digest not in _kernels}
    if todo:
        so = native.build(
            _PRELUDE + "".join(f"\nint {cp.symbol}{cp.source}" for cp in todo.values()),
            {cp.symbol: (_ARGTYPES, ctypes.c_int) for cp in todo.values()},
            opt="-O1", stem="programs", span="exec.compile", programs=len(todo),
        )
        for digest, cp in todo.items():
            _kernels[digest] = getattr(so, cp.symbol)


class CompiledProgram:
    """A program compiled to a C function.

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
        gen = _Codegen(program)
        #: The C function, from its parameter list on.
        self.source = gen.generate()
        self.digest = hashlib.sha256(self.source.encode()).hexdigest()[:16]
        self.symbol = f"program_{self.digest}"
        self.branch_sites = gen.branch_sites
        self._failures = list(gen.failures)
        self._integral = [gen.kinds[s.name] == "i" for s in program.scalars]

    def _prepare(
        self, params: Mapping[str, int], inputs: Mapping[str, np.ndarray] | None
    ) -> tuple[list[int], dict[str, np.ndarray], list[int]]:
        """The parameter values, the storage (one column-major ``float64``
        array per array, copied from *inputs* or zero) and, for a traced
        run, each array's base address in the run's layout, from which the
        memory events are written."""
        inputs = inputs or {}
        p = self.program
        missing = set(p.params) - set(params)
        if missing:
            raise ExecutionError(f"missing parameters: {sorted(missing)}")
        try:
            values = [operator.index(params[name]) for name in p.params]
        except TypeError as exc:
            raise ExecutionError(f"{p.name}: parameters must be integers ({exc})") from None
        bases = layout_for_program(p, params).bases if self.trace else {}
        storage: dict[str, np.ndarray] = {}
        for a in p.arrays:
            shape = evaluate_extents(a.extents, params)
            given = inputs.get(a.name)
            arr = np.array(np.zeros(shape) if given is None else given, np.float64, order="F")
            if arr.shape != shape:
                raise ExecutionError(f"input {a.name} has shape {arr.shape}, expected {shape}")
            if a.dtype == "i8" and not np.array_equal(arr, np.trunc(arr)):
                raise ExecutionError(f"input {a.name} of an integer array is not integral")
            storage[a.name] = arr
        return values, storage, [bases.get(a.name, 0) for a in p.arrays]

    def _drive(
        self,
        params: Mapping[str, int],
        inputs: Mapping[str, np.ndarray] | None,
        memory_sink,
        branch_sink,
        chunk_events: int,
    ) -> RunResult:
        """The one execution path behind :meth:`run` and
        :meth:`run_streaming`: seed storage, call the kernel with buffers
        that drain through the sinks, package the result (``trace=None``)."""
        values, storage, bases = self._prepare(params, inputs)
        build([self])
        cap = chunk_events if self.trace else 1
        buffers = (np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64))
        sinks = (memory_sink, branch_sink)
        failed: list[BaseException] = []

        def flush(stream: int, n: int) -> int:
            """Feed one stream's *n* buffered events; 1 if its sink raised."""
            try:
                if sinks[stream] is not None:
                    sinks[stream].feed(buffers[stream][:n])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failed.append(exc)
                return 1
            return 0

        arrays = list(storage.values())
        out = np.zeros(_OUT + len(self._integral), dtype=np.int64)
        fout = np.zeros(len(self._integral) + 1, dtype=np.float64)

        def c_array(ctype, items: list):
            return (ctype * (len(items) + 1))(*items)

        # Every sink feed happens inside the span, so the span tree nests
        # the sinks under it and its self time is trace production.
        with telemetry.span("exec.run", program=self.program.name):
            status = _kernels[self.digest](
                c_array(ctypes.c_int64, values),
                c_array(ctypes.c_void_p, [a.ctypes.data for a in arrays]),
                c_array(ctypes.c_int64, [e for a in arrays for e in a.shape]),
                c_array(ctypes.c_int64, bases),
                buffers[0].ctypes.data, buffers[1].ctypes.data, cap, self.trace,
                _FLUSH(flush), out.ctypes.data, fout.ctypes.data,
            )
            if status == 1:
                site, a, b = out[_FAILURE : _FAILURE + 3].tolist()
                raise ExecutionError(
                    f"runtime failure in {self.program.name}: "
                    + self._failures[site].format(a, b)
                )
            if status == 2:  # a sink raised
                raise failed[0]
            for stream, n in enumerate(out[_LEVELS:_FAILURE].tolist()):
                if n and flush(stream, n):
                    raise failed[0]
        values = zip(self._integral, out[_OUT:].tolist(), fout.tolist())
        return RunResult(
            arrays=storage,
            scalars={
                s.name: i if integral else f
                for s, (integral, i, f) in zip(self.program.scalars, values)
            },
            counters=Counters(*out[:_LEVELS].tolist()),
            branch_sites=dict(self.branch_sites),
        )

    def run(
        self,
        params: Mapping[str, int],
        inputs: Mapping[str, np.ndarray] | None = None,
    ) -> RunResult:
        """Execute under *params*, seeding arrays from *inputs* (missing
        arrays start at zero). A traced run materializes the whole trace;
        :meth:`run_streaming` replays it in bounded memory instead."""
        from repro.machine.sinks import MaterializeSink

        mem_sink, bra_sink = MaterializeSink(), MaterializeSink()
        result = self._drive(params, inputs, mem_sink, bra_sink, DEFAULT_CHUNK_EVENTS)
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
        a ``None`` sink discards its stream. Each chunk is a view of a
        buffer the next chunk overwrites, so a sink may overwrite it too
        (:class:`~repro.machine.perfcounters.MemoryPipelineSink` does).
        Every chunk of a stream has exactly ``chunk_events`` events
        except the run's remainder.
        An exception a sink raises propagates unchanged. The returned
        :class:`~repro.exec.events.RunResult` has ``trace=None``; the
        caller calls the sinks' ``finish()``.
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
