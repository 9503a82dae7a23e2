"""IR -> Python compilation.

The hot path of every experiment is executing a kernel while recording its
memory-access and branch traces. A tree-walking interpreter pays dispatch
overhead on every node; instead we compile the IR once into a Python
function and call it per run. Compilation has **two codegen tiers**,
selected per innermost loop:

- the **scalar tier** executes one Python statement per IR statement per
  iteration (closures over flat storage, one encoded ``list.append`` per
  trace event) — the oracle, able to run any program;
- the **block tier** (``exec_mode="block"``, the default) compiles an
  eligible innermost ``Loop`` — straight-line affine ``Assign`` bodies
  with no blocking loop-carried dependence, see
  :mod:`repro.exec.blocktier` — into whole-trip NumPy operations: one
  gather/compute/scatter per statement and one ``(trip, events/iter)``
  int64 event matrix raveled into the trace stream per loop entry.
  Static per-iteration :class:`_Costs` are multiplied by the trip count,
  so counters stay exact; a runtime dependence guard routes unsafe loop
  *entries* to the scalar fallback, keeping traces, values and counters
  bit-identical to ``exec_mode="scalar"`` (asserted by the differential
  suite in ``tests/exec/test_block_scalar_differential.py``).

Every run goes through one driver that flushes the event buffers to
:class:`~repro.machine.sinks.TraceSink` consumers in bounded NumPy
chunks: the generated scalar-tier code checks the buffer level at every
loop-iteration boundary and drains through the driver, and block-tier
loops hand it their event matrices as ready-made int64 arrays. Memory
events from both tiers coalesce, in program order, into one pending
buffer, so the memory sink sees exactly ``chunk_events`` events per chunk
and one shorter tail at the end of the run, however the loops fragment
the stream. :meth:`CompiledProgram.run_streaming` exposes the sinks;
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
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.errors import RUNTIME_FAILURES, ExecutionError
from repro.exec.blocktier import (
    DEFAULT_MIN_BLOCK_TRIP,
    BlockPlan,
    block_guard,
    classify_block_loop,
)
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
    map_expr,
)
from repro.ir.program import Program
from repro.ir.stmt import Assign, If, Loop, Stmt, walk_stmts

_CMP_PY = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Execution tiers a program can be compiled for.
EXEC_MODES = ("block", "scalar")


class TierFallbacks:
    """Running counts of block-tier runtime fallbacks for one compiled
    program, split by reason. The generated code calls :meth:`guard` /
    :meth:`trip` on the (rare) fallback paths, so the counts exist
    whether or not telemetry is recording — the measurement layer reads
    per-run deltas and the run summary surfaces them.
    """

    __slots__ = ("guard_rejected", "below_min_trip")

    def __init__(self) -> None:
        self.guard_rejected = 0
        self.below_min_trip = 0

    def guard(self) -> None:
        """One loop entry rejected by the runtime dependence guard."""
        self.guard_rejected += 1

    def trip(self) -> None:
        """One non-empty loop entry below the block-tier trip floor."""
        self.below_min_trip += 1

    def as_dict(self) -> dict[str, int]:
        return {
            "guard_rejected": self.guard_rejected,
            "below_min_trip": self.below_min_trip,
        }


def _fp_errstate():
    """Error state under which block-tier float math runs: raise where the
    scalar tier would raise (division by zero, invalid sqrt)."""
    return np.errstate(divide="raise", invalid="raise", over="ignore")


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

    def emit_scaled(self, lines: list[str], indent: str, trip: str) -> None:
        """Per-iteration counts times a runtime trip count (block tier)."""
        for name in ("loads", "stores", "flops", "intops", "branches", "loop_iters"):
            n = getattr(self, name)
            if n:
                lines.append(f"{indent}_c_{name} += {trip} * {n}")


class _Codegen:
    """Generates the body of the compiled kernel function."""

    def __init__(self, program: Program, trace: bool, *, block_tier: bool = False):
        self.program = program
        self.trace = trace
        self.block_tier = block_tier
        # Storage representation must be fixed before any statement is
        # emitted (scalar-tier subscript/value reads are wrapped for
        # ndarray storage), so pre-scan for block-eligible loops. Each
        # loop is classified once, here; _loop reuses the plan.
        self._plans: dict[int, tuple[BlockPlan | None, str | None]] = {
            id(s): classify_block_loop(s) if block_tier else (None, "exec_mode")
            for s in walk_stmts(program.body)
            if isinstance(s, Loop)
        }
        self.ndarray_storage = any(
            plan is not None for plan, _ in self._plans.values()
        )
        self.block_loops = 0
        #: (loop var, tier, static fallback reason | None) per *innermost*
        #: loop, in emission order — the per-loop telemetry evidence.
        self.loop_tiers: list[tuple[str, str, str | None]] = []
        self.array_ids = {a.name: i for i, a in enumerate(program.arrays)}
        self.ranks = {a.name: a.rank for a in program.arrays}
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

    def _lin_parts(
        self,
        array: str,
        indices: tuple[Expr, ...],
        lines: list[str],
        indent: str,
        costs: _Costs,
    ) -> str:
        """The flat (column-major) element-index expression for *indices*."""
        parts = []
        for d, sub in enumerate(indices):
            code = self._expr(sub, lines, indent, costs, in_subscript=True)
            stride = f"_s_{array}_{d}"
            parts.append(f"(({code})-1)" if d == 0 else f"{stride}*(({code})-1)")
        costs.intops += len(indices)
        return " + ".join(parts)

    def _linear_index(
        self, ref: ArrayRef, lines: list[str], indent: str, costs: _Costs
    ) -> str:
        """Emit computation of the flat (column-major) element index."""
        expr = self._lin_parts(ref.name, ref.indices, lines, indent, costs)
        tmp = self.fresh("l")
        lines.append(f"{indent}{tmp} = {expr}")
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
            elem = f"{_py(expr.name)}[{lin}]"
            if self.ndarray_storage:
                # Keep scalar-tier semantics identical to list storage:
                # subscript positions need Python ints, value positions
                # plain floats (np.float64 round-trips bit-exactly).
                return f"int({elem})" if in_subscript else f"float({elem})"
            return elem
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
        plan, reason = self._plans[id(stmt)]
        if not any(isinstance(s, Loop) for s in walk_stmts(stmt.body)):
            tier = "scalar" if plan is None else "block"
            self.loop_tiers.append((stmt.var, tier, reason))
        if plan is None:
            self._emit_scalar_loop(stmt, indent, lo, hi, step)
        else:
            self._emit_two_tier_loop(stmt, plan, indent, lo, hi)

    def _emit_scalar_loop(
        self, stmt: Loop, indent: str, lo: str, hi: str, step: str
    ) -> None:
        """The per-iteration tier: one Python loop, per-event appends."""
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

    # -- block tier -------------------------------------------------------
    def _emit_lin_at(
        self, array: str, indices: tuple[Expr, ...], var: str, var_code: str,
        indent: str,
    ) -> str:
        """Emit the flat element index with the loop variable bound to the
        runtime value named *var_code* (an int or an int64 vector).

        Cost-free: the scalar tier already accounts for subscript
        arithmetic once per iteration; these are simulator-side values.
        """
        subst = tuple(
            map_expr(
                sub,
                lambda e: VarRef(var_code)
                if isinstance(e, VarRef) and e.name == var
                else e,
            )
            for sub in indices
        )
        scratch: list[str] = []
        expr = self._lin_parts(array, subst, scratch, indent, _Costs())
        assert not scratch, "affine subscripts emit no support lines"
        tmp = self.fresh("l")
        self.lines.append(f"{indent}{tmp} = {expr}")
        return tmp

    def _vec_expr(self, expr: Expr, reads, px: dict[int, str]) -> str:
        """NumPy-elementwise code for a block-eligible value expression.

        *reads* is an iterator over the statement's read accesses in the
        scalar tier's emission order; *px* maps pattern id -> the name of
        its precomputed index vector.
        """
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, VarRef):
            return _py(expr.name)
        if isinstance(expr, ArrayRef):
            acc = next(reads)
            return f"{_py(expr.name)}[{px[acc.pattern]}]"
        if isinstance(expr, BinOp):
            lhs = self._vec_expr(expr.lhs, reads, px)
            rhs = self._vec_expr(expr.rhs, reads, px)
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, UnOp):
            return f"(-{self._vec_expr(expr.operand, reads, px)})"
        if isinstance(expr, Call):
            args = [self._vec_expr(a, reads, px) for a in expr.args]
            if expr.func == "sqrt":
                return f"_npsqrt({args[0]})"
            if expr.func == "abs":
                return f"_npabs({args[0]})"
        raise ExecutionError(f"not block-vectorizable: {expr!r}")

    def _emit_two_tier_loop(
        self, stmt: Loop, plan: BlockPlan, indent: str, lo: str, hi: str
    ) -> None:
        """Runtime-guarded block path with the scalar loop as fallback."""
        self.block_loops += 1
        assert isinstance(stmt.step, Const)
        step = stmt.step.value
        ind2 = indent + "    "
        lo_v, hi_v = self.fresh("lo"), self.fresh("hi")
        self.lines.append(f"{indent}{lo_v} = {lo}")
        self.lines.append(f"{indent}{hi_v} = {hi}")
        trip, ok = self.fresh("T"), self.fresh("ok")
        self.lines.append(
            f"{indent}{trip} = ({hi_v} - {lo_v}) // {step} + 1 "
            f"if {hi_v} >= {lo_v} else 0"
        )
        # Runtime dependence guard: concrete (slope, intercept) per access
        # pattern, affinely extrapolated from the first two lattice points.
        self.lines.append(f"{indent}if {trip} >= _mbt:")
        v0, v1 = self.fresh("q"), self.fresh("q")
        self.lines.append(f"{ind2}{v0} = {lo_v}")
        self.lines.append(f"{ind2}{v1} = {lo_v} + {step}")
        ab_parts = []
        for array, indices in plan.patterns:
            b_name = self._emit_lin_at(array, indices, stmt.var, v0, ind2)
            at_next = self._emit_lin_at(array, indices, stmt.var, v1, ind2)
            a_name = self.fresh("a")
            self.lines.append(f"{ind2}{a_name} = {at_next} - {b_name}")
            ab_parts.append(f"({a_name}, {b_name})")
        self.lines.append(
            f"{ind2}{ok} = _bg(({', '.join(ab_parts)},), "
            f"{plan.write_patterns!r}, {plan.pairs!r}, {trip})"
        )
        self.lines.append(f"{ind2}if not {ok}: _fbg()")
        self.lines.append(f"{indent}else:")
        self.lines.append(f"{indent}    {ok} = False")
        self.lines.append(f"{indent}    if {trip} > 0: _fbt()")

        self.lines.append(f"{indent}if {ok}:")
        iv = self.fresh("iv")
        self.lines.append(
            f"{ind2}{iv} = _np.arange({lo_v}, {hi_v} + 1, {step}, dtype=_np.int64)"
        )
        px: dict[int, str] = {}
        for pid, (array, indices) in enumerate(plan.patterns):
            px[pid] = self._emit_lin_at(array, indices, stmt.var, iv, ind2)
        self.lines.append(f"{ind2}with _fpe():")
        ind3 = ind2 + "    "
        acc_iter = iter(plan.accesses)
        for body_stmt in stmt.body:
            assert isinstance(body_stmt, Assign)
            assert isinstance(body_stmt.target, ArrayRef)
            val = self._vec_expr(body_stmt.value, acc_iter, px)
            wacc = next(acc_iter)
            self.lines.append(
                f"{ind3}{_py(body_stmt.target.name)}[{px[wacc.pattern]}] = {val}"
            )
        if self.trace:
            k = len(plan.accesses)
            ev = self.fresh("E")
            self.lines.append(
                f"{ind2}{ev} = _np.empty(({trip}, {k}), dtype=_np.int64)"
            )
            for col, acc in enumerate(plan.accesses):
                base = memory_event_base(self.array_ids[acc.array], acc.is_write)
                self.lines.append(f"{ind2}{ev}[:, {col}] = {base} + {px[acc.pattern]}")
            self.lines.append(f"{ind2}_mv({ev}.reshape(-1))")
        # Static per-iteration costs, scaled by the trip count. The probe
        # replays the scalar tier's codegen against scratch buffers so the
        # counts are the scalar path's, by construction.
        probe = _Costs()
        probe.loop_iters += 1
        probe.intops += 2
        scratch: list[str] = []
        for body_stmt in stmt.body:
            self._assign(body_stmt, scratch, ind2, probe)
        probe.emit_scaled(self.lines, ind2, trip)

        self.lines.append(f"{indent}else:")
        self._emit_scalar_loop(stmt, indent + "    ", lo_v, hi_v, str(step))

    # -- whole function -------------------------------------------------------
    def generate(self) -> str:
        p = self.program
        ind = "    "
        out: list[str] = [
            "def _kernel(_params, _arrays, _exts, _mem, _bra, _cap, _flush, _mv):"
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

    ``exec_mode`` selects the codegen tier: ``"block"`` (the default)
    vectorizes eligible innermost loops and falls back per loop / per
    entry; ``"scalar"`` is the pure per-iteration oracle the differential
    tests compare against. Both produce bit-identical traces, counters
    and values.
    ``min_block_trip`` (default 16) is the smallest trip count worth
    vectorizing. :attr:`block_loops` counts the loops that got a block
    path.
    """

    def __init__(
        self,
        program: Program,
        *,
        trace: bool = False,
        exec_mode: str = "block",
        min_block_trip: int = DEFAULT_MIN_BLOCK_TRIP,
    ):
        if exec_mode not in EXEC_MODES:
            raise ExecutionError(
                f"exec_mode must be one of {EXEC_MODES}, got {exec_mode!r}"
            )
        self.program = program
        self.trace = trace
        self.exec_mode = exec_mode
        self.min_block_trip = max(1, int(min_block_trip))
        #: Runtime fallback counts (guard-rejected / below-min-trip loop
        #: entries), accumulated across every run of this instance.
        self.fallbacks = TierFallbacks()
        with telemetry.span(
            "exec.compile", program=program.name, mode=self.exec_mode
        ) as csp:
            gen = _Codegen(program, trace, block_tier=self.exec_mode == "block")
            self.source = gen.generate()
            self.array_ids = gen.array_ids
            self.branch_sites = gen.branch_sites
            #: Number of innermost loops compiled with a block (vector) path.
            self.block_loops = gen.block_loops
            #: (loop var, tier, static reason | None) per innermost loop.
            self.loop_tiers = tuple(gen.loop_tiers)
            self._ndarray_storage = gen.ndarray_storage
            namespace: dict = {
                "_math": math,
                "_np": np,
                "_npsqrt": np.sqrt,
                "_npabs": np.abs,
                "_bg": block_guard,
                "_mbt": self.min_block_trip,
                "_fpe": _fp_errstate,
                "_fbg": self.fallbacks.guard,
                "_fbt": self.fallbacks.trip,
            }
            exec(compile(self.source, f"<repro:{program.name}>", "exec"), namespace)
            self._fn = namespace["_kernel"]
            if telemetry.enabled():
                csp.set(block_loops=self.block_loops)
                for var, tier, reason in self.loop_tiers:
                    attrs = {"var": var, "tier": tier}
                    if reason is not None:
                        attrs["reason"] = reason
                    telemetry.record_span(
                        "exec.loop", telemetry.perf_counter(), 0.0, **attrs
                    )
                    telemetry.counter(f"exec.loops.{tier}")
                    if tier == "scalar" and reason not in (None, "exec_mode"):
                        telemetry.counter(f"exec.fallback.static.{reason}")

    @property
    def static_fallbacks(self) -> dict[str, int]:
        """Innermost loops rejected from the block tier at compile time,
        keyed by :data:`~repro.exec.blocktier.STATIC_FALLBACK_REASONS`."""
        counts: dict[str, int] = {}
        for _var, tier, reason in self.loop_tiers:
            if tier == "scalar" and reason not in (None, "exec_mode"):
                counts[reason] = counts.get(reason, 0) + 1
        return counts

    def _prepare(
        self,
        params: Mapping[str, int],
        inputs: Mapping[str, np.ndarray] | None,
    ) -> tuple[dict[str, tuple[int, ...]], dict[str, object]]:
        """Evaluate extents, validate trace addressability, seed storage.

        Storage is a flat column-major Python list per array on the scalar
        tier and a flat float64 ndarray when any loop has a block path
        (gather/scatter needs ndarrays; scalar statements index either).
        """
        inputs = inputs or {}
        p = self.program
        missing = set(p.params) - set(params)
        if missing:
            raise ExecutionError(f"missing parameters: {sorted(missing)}")
        exts: dict[str, tuple[int, ...]] = {}
        storage: dict[str, object] = {}
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
                flat = arr.flatten(order="F")
                storage[a.name] = flat if self._ndarray_storage else flat.tolist()
            elif self._ndarray_storage:
                storage[a.name] = np.zeros(size, dtype=np.float64)
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
            # Copy the tail so a large block-tier matrix is not kept alive.
            pending_n = n - stop
            if pending_n:
                pending.append(events[stop:].copy())

        def drain_mem() -> None:
            if mem:
                if memory_sink is not None:
                    push(np.asarray(mem, dtype=np.int64))
                mem.clear()

        def flush() -> None:
            drain_mem()
            if bra:
                if branch_sink is not None:
                    branch_sink.feed(np.asarray(bra, dtype=np.int64))
                bra.clear()

        def emit_vec(chunk: np.ndarray) -> None:
            drain_mem()
            if memory_sink is not None:
                push(chunk)

        fb = self.fallbacks
        guard0, trip0 = fb.guard_rejected, fb.below_min_trip
        with telemetry.span(
            "exec.run", program=self.program.name, mode=self.exec_mode
        ) as sp:
            try:
                (loads, stores, flops, intops, branches, iters, scalars) = self._fn(
                    dict(params), storage, exts, mem, bra, chunk_events, flush,
                    emit_vec,
                )
            except RUNTIME_FAILURES as exc:
                raise ExecutionError(
                    f"runtime failure in {self.program.name}: {exc}"
                ) from exc
        flush()  # tail events after the last loop boundary
        if pending:
            memory_sink.feed(np.concatenate(pending))
        if telemetry.enabled():
            dg = fb.guard_rejected - guard0
            dt = fb.below_min_trip - trip0
            if dg:
                telemetry.counter("exec.fallback.guard_rejected", dg)
            if dt:
                telemetry.counter("exec.fallback.below_min_trip", dt)
            sp.set(guard_rejected=dg, below_min_trip=dt)
        return RunResult(
            arrays={
                name: np.asarray(vals, dtype=np.float64).reshape(exts[name], order="F")
                for name, vals in storage.items()
            },
            scalars={
                k: (v.item() if isinstance(v, np.generic) else v)
                for k, v in scalars.items()
            },
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
        last, which holds the run's remainder. Scalar-tier events and
        each block-tier loop entry's ``trip * events_per_iteration``
        matrix join one pending buffer in program order, and only
        completed slices reach ``memory_sink``. Branch chunks are at most
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
    exec_mode: str = "block",
) -> RunResult:
    """One-shot compile + run."""
    return CompiledProgram(program, trace=trace, exec_mode=exec_mode).run(
        params, inputs
    )
