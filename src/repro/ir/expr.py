"""Expression nodes.

Expressions are immutable trees. Structural equality (``__eq__``/``__hash__``)
lets passes memoise and compare rewrites; *arithmetic* operator overloads are
provided for convenient construction, while *comparisons* are built with the
explicit constructors in :mod:`repro.ir.builder` (``ceq``, ``clt``, ...) so
that ``==`` can keep its structural meaning.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.errors import IRError

Number = Union[int, float]

#: Arithmetic binary operators.
ARITH_OPS = ("+", "-", "*", "/")
#: Comparison operators (Fortran-style semantics, printed as .EQ. etc.).
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
#: Intrinsic functions the executor understands.
INTRINSICS = ("sqrt", "abs", "min", "max")


class Expr:
    """Base class for expression nodes."""

    __slots__ = ("_hash",)

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions."""
        return ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- construction sugar (arithmetic only) --------------------------------
    def __add__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("/", as_expr(other), self)

    def __neg__(self) -> "UnOp":
        return UnOp("-", self)

    def __str__(self) -> str:
        from repro.ir.printer import expr_str

        return expr_str(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class Const(Expr):
    """Numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"Const value must be int or float, got {value!r}")
        object.__setattr__(self, "value", value)

    def _key(self) -> tuple:
        return (self.value, type(self.value).__name__)

    def __setattr__(self, *a: object) -> None:  # immutability
        raise AttributeError("Expr nodes are immutable")


class VarRef(Expr):
    """Reference to a scalar variable, loop variable or parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError(f"VarRef name must be non-empty str, got {name!r}")
        object.__setattr__(self, "name", name)

    def _key(self) -> tuple:
        return (self.name,)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class ArrayRef(Expr):
    """``A(e1, ..., ek)`` — 1-based Fortran-style array element."""

    __slots__ = ("name", "indices")

    def __init__(self, name: str, indices: Iterable[Expr]):
        idx = tuple(as_expr(e) for e in indices)
        if not idx:
            raise TypeError("ArrayRef needs at least one index")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "indices", idx)

    def children(self) -> tuple[Expr, ...]:
        return self.indices

    def _key(self) -> tuple:
        return (self.name, self.indices)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class BinOp(Expr):
    """Arithmetic binary operation."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", as_expr(lhs))
        object.__setattr__(self, "rhs", as_expr(rhs))

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def _key(self) -> tuple:
        return (self.op, self.lhs, self.rhs)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class UnOp(Expr):
    """Unary arithmetic operation (negation)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op != "-":
            raise ValueError(f"unknown unary op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "operand", as_expr(operand))

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _key(self) -> tuple:
        return (self.op, self.operand)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class Call(Expr):
    """Intrinsic function call (sqrt, abs, min, max)."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Iterable[Expr]):
        if func not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {func!r}")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(as_expr(a) for a in args))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def _key(self) -> tuple:
        return (self.func, self.args)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class Select(Expr):
    """``cond ? if_true : if_false`` — expression-level conditional.

    Produced by ``ElimRW`` (paper Fig. 2, line 48) when a read must be
    redirected to a copy array only at iterations where the anti-dependence
    source has already been overwritten.
    """

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Expr, if_true: Expr, if_false: Expr):
        object.__setattr__(self, "cond", as_expr(cond))
        object.__setattr__(self, "if_true", as_expr(if_true))
        object.__setattr__(self, "if_false", as_expr(if_false))

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.if_true, self.if_false)

    def _key(self) -> tuple:
        return (self.cond, self.if_true, self.if_false)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class Cmp(Expr):
    """Comparison producing a boolean."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in CMP_OPS:
            raise ValueError(f"unknown comparison op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", as_expr(lhs))
        object.__setattr__(self, "rhs", as_expr(rhs))

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def _key(self) -> tuple:
        return (self.op, self.lhs, self.rhs)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class LogicalAnd(Expr):
    """Conjunction of boolean expressions."""

    __slots__ = ("args",)

    def __init__(self, args: Iterable[Expr]):
        flat: list[Expr] = []
        for a in args:
            if isinstance(a, LogicalAnd):
                flat.extend(a.args)
            else:
                flat.append(as_expr(a))
        if len(flat) < 2:
            raise IRError(f"LogicalAnd needs at least two operands, got {len(flat)}")
        object.__setattr__(self, "args", tuple(flat))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def _key(self) -> tuple:
        return (self.args,)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class LogicalOr(Expr):
    """Disjunction of boolean expressions."""

    __slots__ = ("args",)

    def __init__(self, args: Iterable[Expr]):
        flat: list[Expr] = []
        for a in args:
            if isinstance(a, LogicalOr):
                flat.extend(a.args)
            else:
                flat.append(as_expr(a))
        if len(flat) < 2:
            raise IRError(f"LogicalOr needs at least two operands, got {len(flat)}")
        object.__setattr__(self, "args", tuple(flat))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def _key(self) -> tuple:
        return (self.args,)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


class LogicalNot(Expr):
    """Boolean negation."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", as_expr(arg))

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def _key(self) -> tuple:
        return (self.arg,)

    def __setattr__(self, *a: object) -> None:
        raise AttributeError("Expr nodes are immutable")


def as_expr(value: Expr | Number) -> Expr:
    """Coerce Python numbers to :class:`Const`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not IR values")
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to Expr")


def map_expr(expr: Expr, fn) -> Expr:
    """Bottom-up rebuild: apply *fn* to every node after mapping children.

    *fn* receives a node whose children are already transformed and returns a
    replacement node (or the same node).
    """
    if isinstance(expr, (Const, VarRef)):
        return fn(expr)
    if isinstance(expr, ArrayRef):
        return fn(ArrayRef(expr.name, [map_expr(e, fn) for e in expr.indices]))
    if isinstance(expr, BinOp):
        return fn(BinOp(expr.op, map_expr(expr.lhs, fn), map_expr(expr.rhs, fn)))
    if isinstance(expr, UnOp):
        return fn(UnOp(expr.op, map_expr(expr.operand, fn)))
    if isinstance(expr, Call):
        return fn(Call(expr.func, [map_expr(a, fn) for a in expr.args]))
    if isinstance(expr, Select):
        return fn(
            Select(
                map_expr(expr.cond, fn),
                map_expr(expr.if_true, fn),
                map_expr(expr.if_false, fn),
            )
        )
    if isinstance(expr, Cmp):
        return fn(Cmp(expr.op, map_expr(expr.lhs, fn), map_expr(expr.rhs, fn)))
    if isinstance(expr, LogicalAnd):
        return fn(LogicalAnd([map_expr(a, fn) for a in expr.args]))
    if isinstance(expr, LogicalOr):
        return fn(LogicalOr([map_expr(a, fn) for a in expr.args]))
    if isinstance(expr, LogicalNot):
        return fn(LogicalNot(map_expr(expr.arg, fn)))
    raise TypeError(f"unknown Expr node {type(expr).__name__}")


def walk_expr(expr: Expr):
    """Yield every node of the tree, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def free_names(expr: Expr) -> frozenset[str]:
    """Scalar/loop/parameter names referenced (array names excluded)."""
    names = set()
    for node in walk_expr(expr):
        if isinstance(node, VarRef):
            names.add(node.name)
    return frozenset(names)
