"""Affine constraints ``e >= 0`` and ``e == 0`` with integer normalisation.

All iteration spaces and dependence sets in this package are *integer* sets,
so inequality constraints with integer coefficients can be tightened: from
``g*a.x + c >= 0`` with ``g = gcd`` of the variable coefficients we derive
``a.x + floor(c/g) >= 0``, which cuts off rational-only slack and keeps
Fourier–Motzkin closer to the true integer projection.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Mapping

from repro.poly.linexpr import Coef, LinExpr


class Kind(Enum):
    """Constraint sense."""

    GE = ">="  # expr >= 0
    EQ = "=="  # expr == 0


class Constraint:
    """An immutable, normalised affine constraint.

    Normalisation rules (applied on construction):

    - multiply through so all coefficients are integers;
    - divide by the gcd of the variable coefficients;
    - for ``GE`` constraints, floor the constant (integer tightening);
    - for ``EQ`` constraints with no integer solution for the constant
      (e.g. ``2x + 1 == 0``), keep as-is — emptiness checks catch it;
    - canonicalise the sign of ``EQ`` constraints (first variable coefficient
      positive) so equal constraints compare equal.

    The hash and :meth:`fingerprint_text` are computed once, on first use.
    """

    __slots__ = ("expr", "kind", "_hash", "_fp")

    def __init__(self, expr: LinExpr, kind: Kind):
        if not isinstance(expr, LinExpr):
            raise TypeError(
                f"Constraint expr must be LinExpr, got {type(expr).__name__}"
            )
        self.expr = _normalise(expr, kind)
        self.kind = kind
        self._hash = None
        self._fp = None

    @classmethod
    def normal(cls, expr: LinExpr, kind: Kind) -> "Constraint":
        """The constraint of *expr*, which is already in normal form (a
        :func:`normal_row`, or a normal expression renamed without
        merging variables or moving an equality's sign): the constructor
        without its normalisation."""
        c = object.__new__(cls)
        c.expr = expr
        c.kind = kind
        c._hash = None
        c._fp = None
        return c

    def __reduce__(self):
        return (Constraint, (self.expr, self.kind))

    def fingerprint_text(self) -> str:
        """Stable structural identity (process-independent, unlike hash)."""
        if self._fp is None:
            self._fp = f"{self.kind.value};{self.expr.fingerprint_text()}"
        return self._fp

    # -- queries -------------------------------------------------------------
    def variables(self) -> frozenset[str]:
        """Variables appearing in the constraint."""
        return self.expr.variables()

    def is_trivial_true(self) -> bool:
        """Constant constraint that always holds."""
        if not self.expr.is_constant():
            return False
        c = self.expr.constant
        return c >= 0 if self.kind is Kind.GE else c == 0

    def is_trivial_false(self) -> bool:
        """Constant constraint that never holds."""
        if not self.expr.is_constant():
            return False
        c = self.expr.constant
        return c < 0 if self.kind is Kind.GE else c != 0

    def satisfied(self, env: Mapping[str, Coef]) -> bool:
        """Evaluate the constraint at a full variable binding."""
        v = self.expr.evaluate(env)
        return v >= 0 if self.kind is Kind.GE else v == 0

    # -- rewriting -------------------------------------------------------------
    def substitute(self, bindings: Mapping[str, "LinExpr | Coef"]) -> "Constraint":
        """Substitute variables by affine expressions."""
        return Constraint(self.expr.substitute(bindings), self.kind)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        """Rename variables. The result stays normal unless two variables
        merge or an equality's first variable gets a negative
        coefficient; only then is it normalised again."""
        expr = self.expr.rename(mapping)
        terms = expr._terms
        if len(terms) == len(self.expr._terms) and (
            self.kind is Kind.GE or not terms or terms[min(terms)] > 0
        ):
            return Constraint.normal(expr, self.kind)
        return Constraint(expr, self.kind)

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.kind is other.kind and self.expr == other.expr

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.kind, self.expr))
        return self._hash

    def __repr__(self) -> str:
        return f"Constraint({self})"

    def __str__(self) -> str:
        return f"{self.expr} {self.kind.value} 0"


#: ``(is_eq, {var: coef}, const)``: a constraint ``sum coef*var + const``
#: ``== 0`` (``is_eq``) or ``>= 0`` as plain data, the form Fourier–Motzkin
#: (:mod:`repro.poly.fm`) works on. Coefficients are nonzero ``int``s; a
#: row is never mutated, so rows share their term dicts freely.
Row = tuple[bool, dict[str, int], Coef]


def normal_row(
    is_eq: bool, terms: dict[str, int], const: int, scale: int = 1
) -> Row:
    """The normal form of the constraint ``(terms + const) / scale``, for
    integer *terms*, *const* and positive *scale*.

    With ``g`` the gcd of the coefficients, ``a.x + c >= 0`` with
    ``a = g*a'`` becomes ``a'.x + floor(c/g) >= 0`` (integers); an equality
    divides only when ``g`` divides ``c``, and otherwise keeps its
    smallest integral multiple. An equality's first variable (by name)
    gets a positive coefficient. A constant row keeps its exact value.
    The result shares *terms* when they need no change.
    """
    if not terms:
        if scale != 1:
            const = const // scale if const % scale == 0 else Fraction(const, scale)
        return (is_eq, terms, const)
    g = math.gcd(*terms.values())
    if is_eq and const % g:
        g = math.gcd(g, const, scale)
    if g > 1:
        terms = {v: a // g for v, a in terms.items()}
        const //= g
    if is_eq and terms[min(terms)] < 0:
        terms = {v: -a for v, a in terms.items()}
        const = -const
    return (is_eq, terms, const)


def _normalise(expr: LinExpr, kind: Kind) -> LinExpr:
    if expr.is_constant():
        return expr
    # Scale to integer coefficients.
    if not expr.is_integral():
        expr = expr * math.lcm(
            expr.constant.denominator, *(c.denominator for _, c in expr.terms_items())
        )
    _, terms, const = normal_row(kind is Kind.EQ, expr._terms, expr._const)
    return expr if terms is expr._terms else LinExpr._raw(terms, const)


def ge0(expr: LinExpr) -> Constraint:
    """Constraint ``expr >= 0``."""
    return Constraint(expr, Kind.GE)


def eq0(expr: LinExpr) -> Constraint:
    """Constraint ``expr == 0``."""
    return Constraint(expr, Kind.EQ)


def le(lhs: LinExpr | Coef, rhs: LinExpr | Coef) -> Constraint:
    """Constraint ``lhs <= rhs``."""
    return ge0(_as_expr(rhs) - _as_expr(lhs))


def ge(lhs: LinExpr | Coef, rhs: LinExpr | Coef) -> Constraint:
    """Constraint ``lhs >= rhs``."""
    return ge0(_as_expr(lhs) - _as_expr(rhs))


def lt(lhs: LinExpr | Coef, rhs: LinExpr | Coef) -> Constraint:
    """Strict ``lhs < rhs`` over the integers, i.e. ``lhs <= rhs - 1``."""
    return ge0(_as_expr(rhs) - _as_expr(lhs) - 1)


def equals(lhs: LinExpr | Coef, rhs: LinExpr | Coef) -> Constraint:
    """Constraint ``lhs == rhs``."""
    return eq0(_as_expr(lhs) - _as_expr(rhs))


def _as_expr(value: LinExpr | Coef) -> LinExpr:
    return value if isinstance(value, LinExpr) else LinExpr.const(value)
