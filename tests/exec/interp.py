"""Tree-walking interpreter: the executor's semantic oracle.

Slower than :mod:`repro.exec.compiled` but with no code generation between
the IR and its meaning; the tests require both engines to agree on every
kernel, which guards the compiler against miscodegen. Memory-op, branch and
loop-iteration counters are maintained independently of the compiler's
static-cost scheme, so the event counts can be cross-checked too (flop /
intop classification is codegen-specific and left at zero here).

A traced interpretation records memory and branch events in the
:mod:`repro.exec.events` encoding, with branch sites numbered in the
compiler's order (pre-order over the IR, a statement's value before its
target), so the two engines' traces can be compared event for event.

:data:`CHECKED_COUNTERS` names the counters both engines maintain;
:func:`crosscheck_engines` compares one program's two runs on them and on
its outputs, and :func:`crosscheck_traces` compares two traced runs on
their traces as well.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.errors import ExecutionError, ValidationError
from repro.exec.compiled import run_compiled
from repro.exec.events import (
    Counters,
    RunResult,
    TraceBuffers,
    evaluate_extents,
    memory_event_base,
)
from repro.exec.validate import compare_outputs
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

#: Event counters that both execution engines maintain independently.
CHECKED_COUNTERS = ("loads", "stores", "branches", "loop_iters")

#: What Python raises on a bad subscript, a division by zero or a math
#: domain error; the interpreter re-raises these as ExecutionError.
RUNTIME_FAILURES = (IndexError, KeyError, ZeroDivisionError, FloatingPointError, ValueError)


def _number_sites(program: Program) -> dict[int, tuple[int, Expr]]:
    """``id`` of every ``If``/``Select`` node -> (branch site, condition),
    numbered in the order the compiler visits them."""
    sites: dict[int, tuple[int, Expr]] = {}

    def site(node, cond: Expr) -> None:
        if id(node) in sites:
            raise ExecutionError(f"branch node {node} occurs twice in the IR")
        sites[id(node)] = (len(sites), cond)

    def expr(e: Expr) -> None:
        if isinstance(e, Select):
            expr(e.cond)
            site(e, e.cond)
            expr(e.if_true)
            expr(e.if_false)
            return
        for child in e.children():
            expr(child)

    def block(stmts) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                expr(s.value)
                expr(s.target)
            elif isinstance(s, If):
                expr(s.cond)
                site(s, s.cond)
                block(s.then)
                block(s.orelse)
            elif isinstance(s, Loop):
                for e in (s.lower, s.upper, s.step):
                    expr(e)
                block(s.body)

    block(program.body)
    return sites


class _Interp:
    def __init__(
        self, program: Program, params: Mapping[str, int], inputs, trace: bool = False
    ):
        self.program = program
        self.counters = Counters()
        self.array_ids = {a.name: i for i, a in enumerate(program.arrays)}
        #: Encoded events, or None when not tracing.
        self.mem: list[int] | None = [] if trace else None
        self.bra: list[int] | None = [] if trace else None
        self.sites = _number_sites(program) if trace else {}
        self.env: dict[str, float | int] = dict(params)
        self.exts: dict[str, tuple[int, ...]] = {}
        self.arrays: dict[str, np.ndarray] = {}
        inputs = inputs or {}
        for a in program.arrays:
            shape = evaluate_extents(a.extents, params)
            self.exts[a.name] = shape
            given = inputs.get(a.name)
            if given is not None:
                arr = np.array(given, dtype=np.float64)
                if arr.shape != shape:
                    raise ExecutionError(
                        f"input {a.name} has shape {arr.shape}, expected {shape}"
                    )
            else:
                arr = np.zeros(shape, dtype=np.float64)
            self.arrays[a.name] = arr
        for s in program.scalars:
            self.env[s.name] = 0 if s.dtype == "i8" else 0.0

    def _branch(self, node, taken) -> bool:
        """Record the branch event of *node* and return its outcome."""
        taken = bool(taken)
        if self.bra is not None:
            self.bra.append(self.sites[id(node)][0] * 2 + taken)
        return taken

    # -- expressions ----------------------------------------------------------
    def _index(self, ref: ArrayRef, is_write: bool) -> tuple[int, ...]:
        """The element *ref* addresses, recording its memory event."""
        idx = []
        shape = self.exts[ref.name]
        for d, sub in enumerate(ref.indices):
            v = self.eval(sub)
            if not float(v).is_integer():
                raise ExecutionError(f"non-integer subscript {v} in {ref}")
            v = int(v)
            if not 1 <= v <= shape[d]:
                raise ExecutionError(
                    f"subscript {v} out of bounds 1..{shape[d]} in {ref}"
                )
            idx.append(v - 1)
        if self.mem is not None:
            flat = np.ravel_multi_index(idx, shape, order="F")
            self.mem.append(
                memory_event_base(self.array_ids[ref.name], is_write) + int(flat)
            )
        return tuple(idx)

    def eval(self, expr: Expr):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, VarRef):
            try:
                return self.env[expr.name]
            except KeyError:
                raise ExecutionError(f"unbound variable {expr.name}") from None
        if isinstance(expr, ArrayRef):
            self.counters.loads += 1
            return float(self.arrays[expr.name][self._index(expr, False)])
        if isinstance(expr, BinOp):
            lhs, rhs = self.eval(expr.lhs), self.eval(expr.rhs)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            return lhs / rhs
        if isinstance(expr, UnOp):
            return -self.eval(expr.operand)
        if isinstance(expr, Call):
            args = [self.eval(a) for a in expr.args]
            if expr.func == "sqrt":
                return math.sqrt(args[0])
            if expr.func == "abs":
                return abs(args[0])
            if expr.func == "min":
                return min(args)
            return max(args)
        if isinstance(expr, Cmp):
            lhs, rhs = self.eval(expr.lhs), self.eval(expr.rhs)
            return {
                "==": lhs == rhs,
                "!=": lhs != rhs,
                "<": lhs < rhs,
                "<=": lhs <= rhs,
                ">": lhs > rhs,
                ">=": lhs >= rhs,
            }[expr.op]
        if isinstance(expr, LogicalAnd):
            return all(self.eval(a) for a in expr.args)
        if isinstance(expr, LogicalOr):
            return any(self.eval(a) for a in expr.args)
        if isinstance(expr, LogicalNot):
            return not self.eval(expr.arg)
        if isinstance(expr, Select):
            taken = self._branch(expr, self.eval(expr.cond))
            self.counters.branches += 1
            return self.eval(expr.if_true if taken else expr.if_false)
        raise ExecutionError(f"cannot interpret {expr!r}")

    # -- statements -----------------------------------------------------------
    def run_block(self, stmts: tuple[Stmt, ...]) -> None:
        for stmt in stmts:
            self.run_stmt(stmt)

    def run_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            value = self.eval(stmt.value)
            target = stmt.target
            if isinstance(target, VarRef):
                self.env[target.name] = value
            else:
                self.counters.stores += 1
                self.arrays[target.name][self._index(target, True)] = value
        elif isinstance(stmt, If):
            self.counters.branches += 1
            if self._branch(stmt, self.eval(stmt.cond)):
                self.run_block(stmt.then)
            else:
                self.run_block(stmt.orelse)
        elif isinstance(stmt, Loop):
            lo = int(self.eval(stmt.lower))
            hi = int(self.eval(stmt.upper))
            step = int(self.eval(stmt.step))
            if step <= 0:
                raise ExecutionError(f"non-positive loop step {step}")
            for v in range(lo, hi + 1, step):
                self.counters.loop_iters += 1
                self.env[stmt.var] = v
                self.run_block(stmt.body)
        else:
            raise ExecutionError(f"cannot interpret statement {stmt!r}")


def run_interpreted(
    program: Program,
    params: Mapping[str, int],
    inputs: Mapping[str, np.ndarray] | None = None,
    *,
    trace: bool = False,
) -> RunResult:
    """Interpret *program*; with *trace*, the result carries its encoded
    memory and branch traces and its branch sites."""
    interp = _Interp(program, params, inputs, trace)
    try:
        interp.run_block(program.body)
    except RUNTIME_FAILURES as exc:
        raise ExecutionError(f"runtime failure in {program.name}: {exc}") from exc
    scalars = {
        s.name: interp.env[s.name] for s in program.scalars if s.name in interp.env
    }
    return RunResult(
        arrays=interp.arrays,
        scalars=scalars,
        counters=interp.counters,
        trace=(
            TraceBuffers(
                np.array(interp.mem, dtype=np.int64),
                np.array(interp.bra, dtype=np.int64),
            )
            if trace
            else None
        ),
        array_ids=dict(interp.array_ids) if trace else {},
        branch_sites={site: str(cond) for site, cond in interp.sites.values()},
    )


def _disagreements(compiled: RunResult, interpreted: RunResult, outputs) -> list[str]:
    problems = compare_outputs(compiled, interpreted, outputs)
    for name in CHECKED_COUNTERS:
        a = getattr(compiled.counters, name)
        b = getattr(interpreted.counters, name)
        if a != b:
            problems.append(f"counter {name}: compiled {a} vs interpreted {b}")
    return problems


def _raise_if(problems: list[str], program: Program, params) -> None:
    if problems:
        raise ValidationError(
            f"engines disagree on {program.name} at {dict(params)}: "
            + "; ".join(problems)
        )


def crosscheck_engines(
    program: Program,
    params: Mapping[str, int],
    inputs: Mapping[str, np.ndarray] | None = None,
) -> None:
    """Compiled vs interpreted: same outputs, same event counts."""
    compiled = run_compiled(program, params, inputs)
    interpreted = run_interpreted(program, params, inputs)
    _raise_if(_disagreements(compiled, interpreted, program.outputs), program, params)


def crosscheck_traces(
    program: Program,
    params: Mapping[str, int],
    inputs: Mapping[str, np.ndarray] | None = None,
) -> tuple[RunResult, RunResult]:
    """Traced compiled vs traced interpreted: same outputs, same event
    counts, and the same memory and branch traces, event for event.
    Returns the (compiled, interpreted) runs."""
    compiled = run_compiled(program, params, inputs, trace=True)
    interpreted = run_interpreted(program, params, inputs, trace=True)
    problems = _disagreements(compiled, interpreted, program.outputs)
    for name in ("memory", "branches"):
        a = getattr(compiled.trace, name)
        b = getattr(interpreted.trace, name)
        if not np.array_equal(a, b):
            n = min(len(a), len(b))
            diff = np.flatnonzero(a[:n] != b[:n])
            at = int(diff[0]) if len(diff) else n
            problems.append(
                f"{name} trace ({len(a)} vs {len(b)} events) differs from event {at}"
            )
    if compiled.branch_sites != interpreted.branch_sites:
        problems.append(
            f"branch sites: compiled {compiled.branch_sites} vs "
            f"interpreted {interpreted.branch_sites}"
        )
    _raise_if(problems, program, params)
    return compiled, interpreted
