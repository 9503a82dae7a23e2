"""The one program text: a FORTRAN-flavoured printer for IR.

The output mirrors the paper's listings (``do``, ``.EQ.``, 1-based array
subscripts, ``merge(if_true, if_false, cond)``) so transformed programs
can be compared to Figures 3 and 4 by eye and in golden tests, and it is
the frontend grammar: ``parse_program(pretty(p)) == p`` unless a name is a
frontend keyword or an ``.AND.``/``.OR.`` has one operand (nothing in the
package builds either).
"""

from __future__ import annotations

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
from repro.ir.stmt import Assign, If, Loop, Stmt

_CMP_NAMES = {
    "==": ".EQ.",
    "!=": ".NE.",
    "<": ".LT.",
    "<=": ".LE.",
    ">": ".GT.",
    ">=": ".GE.",
}

_TYPE_NAMES = {"f8": "real", "i8": "integer"}

# Precedence for parenthesisation (higher binds tighter).
_PREC = {"or": 1, "and": 2, "not": 3, "cmp": 4, "+": 5, "-": 5, "*": 6, "/": 6, "neg": 7}


def _const_str(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(value)


def expr_str(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression, inserting parentheses only where the parser
    would otherwise read a different tree."""
    if isinstance(expr, Const):
        text = _const_str(expr.value)
        return f"({text})" if text.startswith("-") and parent_prec > 5 else text
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, ArrayRef):
        inner = ",".join(expr_str(e) for e in expr.indices)
        return f"{expr.name}({inner})"
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        lhs = expr_str(expr.lhs, prec)
        # The parser groups to the left, so a right operand of equal
        # precedence keeps its parentheses: i + (j + k).
        rhs = expr_str(expr.rhs, prec + 1)
        text = f"{lhs}{expr.op}{rhs}" if prec >= 6 else f"{lhs} {expr.op} {rhs}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, UnOp):
        operand = expr_str(expr.operand, _PREC["neg"])
        if isinstance(expr.operand, Const) and not operand.startswith("("):
            operand = f"({operand})"  # `-2` reads back as the literal Const(-2)
        text = f"-{operand}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(expr, Call):
        inner = ", ".join(expr_str(a) for a in expr.args)
        return f"{expr.func}({inner})"
    if isinstance(expr, Cmp):
        prec = _PREC["cmp"]
        text = (
            f"{expr_str(expr.lhs, prec)} {_CMP_NAMES[expr.op]} {expr_str(expr.rhs, prec)}"
        )
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, LogicalAnd):
        prec = _PREC["and"]
        text = " .AND. ".join(expr_str(a, prec + 1) for a in expr.args)
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, LogicalOr):
        prec = _PREC["or"]
        text = " .OR. ".join(expr_str(a, prec + 1) for a in expr.args)
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, LogicalNot):
        return f".NOT. {expr_str(expr.arg, _PREC['not'])}"
    if isinstance(expr, Select):
        return (
            f"merge({expr_str(expr.if_true)}, {expr_str(expr.if_false)}, "
            f"{expr_str(expr.cond)})"
        )
    raise TypeError(f"unknown Expr node {type(expr).__name__}")


def _emit(stmt: Stmt, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(stmt, Assign):
        lines.append(f"{pad}{expr_str(stmt.target)} = {expr_str(stmt.value)}")
    elif isinstance(stmt, If):
        lines.append(f"{pad}if ({expr_str(stmt.cond)}) then")
        for s in stmt.then:
            _emit(s, lines, depth + 1)
        if stmt.orelse:
            lines.append(f"{pad}else")
            for s in stmt.orelse:
                _emit(s, lines, depth + 1)
        lines.append(f"{pad}end if")
    elif isinstance(stmt, Loop):
        head = f"{pad}do {stmt.var} = {expr_str(stmt.lower)}, {expr_str(stmt.upper)}"
        if not stmt.has_unit_step:
            head += f", {expr_str(stmt.step)}"
        lines.append(head)
        for s in stmt.body:
            _emit(s, lines, depth + 1)
        lines.append(f"{pad}end do")
    else:
        raise TypeError(f"unknown Stmt node {type(stmt).__name__}")


def pretty_stmt(stmt: Stmt) -> str:
    """Render one statement tree."""
    lines: list[str] = []
    _emit(stmt, lines, 0)
    return "\n".join(lines)


def pretty(program) -> str:
    """Render a whole program with declarations, in the grammar
    :func:`repro.frontend.parse_program` reads."""
    lines = [f"program {program.name}"]
    if program.params:
        lines.append(f"  param {', '.join(program.params)}")
    for a in program.arrays:
        dims = ", ".join(expr_str(e) for e in a.extents)
        lines.append(f"  {_TYPE_NAMES[a.dtype]} {a.name}({dims})")
    for s in program.scalars:
        lines.append(f"  {_TYPE_NAMES[s.dtype]} {s.name}")
    if program.outputs:
        lines.append(f"  output {', '.join(program.outputs)}")
    lines.append("begin")
    for stmt in program.body:
        _emit(stmt, lines, 1)
    lines.append("end")
    return "\n".join(lines)
