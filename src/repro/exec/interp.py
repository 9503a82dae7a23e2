"""Tree-walking interpreter: the semantic oracle.

Slower than :mod:`repro.exec.compiled` but with no code generation between
the IR and its meaning; tests require both engines to agree on every kernel,
which guards the compiler against miscodegen. Memory-op, branch and
loop-iteration counters are maintained independently of the compiler's
static-cost scheme, so the event counts can be cross-checked too (flop /
intop classification is codegen-specific and left at zero here).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.errors import RUNTIME_FAILURES, ExecutionError
from repro.exec.events import Counters, RunResult, evaluate_extents
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


class _Interp:
    def __init__(self, program: Program, params: Mapping[str, int], inputs):
        self.program = program
        self.counters = Counters()
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

    # -- expressions ----------------------------------------------------------
    def _index(self, ref: ArrayRef) -> tuple[int, ...]:
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
            return float(self.arrays[expr.name][self._index(expr)])
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
            taken = self.eval(expr.cond)
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
                self.arrays[target.name][self._index(target)] = value
        elif isinstance(stmt, If):
            self.counters.branches += 1
            if self.eval(stmt.cond):
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
) -> RunResult:
    """Interpret *program*; returns a :class:`RunResult` without traces."""
    interp = _Interp(program, params, inputs)
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
        trace=None,
    )
