"""The IR as plain nested dicts: the document behind content hashes.

:func:`program_to_dict` is what
:func:`~repro.pipeline.recipe.program_fingerprint` hashes, and the node
encoders feed the analysis memo keys. It is a one-way encoding with a
``kind`` tag per node; a program's saved, re-readable form is its text
(``str(program)``, which :func:`repro.frontend.parse_program` reads back).
"""

from __future__ import annotations

from typing import Any

from repro.errors import IRError
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


def expr_to_dict(e: Expr) -> dict[str, Any]:
    """Encode one expression node."""
    if isinstance(e, Const):
        return {"kind": "const", "value": e.value, "float": isinstance(e.value, float)}
    if isinstance(e, VarRef):
        return {"kind": "var", "name": e.name}
    if isinstance(e, ArrayRef):
        return {
            "kind": "array",
            "name": e.name,
            "indices": [expr_to_dict(x) for x in e.indices],
        }
    if isinstance(e, BinOp):
        return {
            "kind": "binop",
            "op": e.op,
            "lhs": expr_to_dict(e.lhs),
            "rhs": expr_to_dict(e.rhs),
        }
    if isinstance(e, UnOp):
        return {"kind": "unop", "op": e.op, "operand": expr_to_dict(e.operand)}
    if isinstance(e, Call):
        return {"kind": "call", "func": e.func, "args": [expr_to_dict(a) for a in e.args]}
    if isinstance(e, Cmp):
        return {
            "kind": "cmp",
            "op": e.op,
            "lhs": expr_to_dict(e.lhs),
            "rhs": expr_to_dict(e.rhs),
        }
    if isinstance(e, LogicalAnd):
        return {"kind": "and", "args": [expr_to_dict(a) for a in e.args]}
    if isinstance(e, LogicalOr):
        return {"kind": "or", "args": [expr_to_dict(a) for a in e.args]}
    if isinstance(e, LogicalNot):
        return {"kind": "not", "arg": expr_to_dict(e.arg)}
    if isinstance(e, Select):
        return {
            "kind": "select",
            "cond": expr_to_dict(e.cond),
            "if_true": expr_to_dict(e.if_true),
            "if_false": expr_to_dict(e.if_false),
        }
    raise IRError(f"cannot serialise expression {e!r}")


def stmt_to_dict(s: Stmt) -> dict[str, Any]:
    """Encode one statement node."""
    if isinstance(s, Assign):
        return {
            "kind": "assign",
            "target": expr_to_dict(s.target),
            "value": expr_to_dict(s.value),
        }
    if isinstance(s, If):
        return {
            "kind": "if",
            "cond": expr_to_dict(s.cond),
            "then": [stmt_to_dict(t) for t in s.then],
            "orelse": [stmt_to_dict(t) for t in s.orelse],
        }
    if isinstance(s, Loop):
        return {
            "kind": "loop",
            "var": s.var,
            "lower": expr_to_dict(s.lower),
            "upper": expr_to_dict(s.upper),
            "step": expr_to_dict(s.step),
            "body": [stmt_to_dict(t) for t in s.body],
        }
    raise IRError(f"cannot serialise statement {s!r}")


def program_to_dict(p: Program) -> dict[str, Any]:
    """Encode a whole program."""
    return {
        "name": p.name,
        "params": list(p.params),
        "arrays": [
            {
                "name": a.name,
                "extents": [expr_to_dict(e) for e in a.extents],
                "dtype": a.dtype,
            }
            for a in p.arrays
        ],
        "scalars": [{"name": s.name, "dtype": s.dtype} for s in p.scalars],
        "outputs": list(p.outputs),
        "body": [stmt_to_dict(s) for s in p.body],
    }
