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

from repro.poly import memo
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

    Constraints are **hash-consed**: construction from the same raw
    ``(expr, kind)`` returns the same object, so repeated normalisation
    is skipped, equality usually short-circuits on identity, and cached
    hashes/fingerprints amortise across every polyhedron sharing the
    constraint.
    """

    __slots__ = ("expr", "kind", "_hash", "_fp")

    def __new__(cls, expr: LinExpr, kind: Kind):
        if not isinstance(expr, LinExpr):
            raise TypeError(
                f"Constraint expr must be LinExpr, got {type(expr).__name__}"
            )
        key = (kind, expr.key())
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.expr = _normalise(expr, kind)
        self.kind = kind
        self._hash = None
        self._fp = None
        _INTERN[key] = self
        return self

    def __init__(self, expr: LinExpr, kind: Kind):
        # All state is set in __new__ (which may return an interned
        # instance that must not be re-initialised).
        pass

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
        """Rename variables."""
        return Constraint(self.expr.rename(mapping), self.kind)

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


def _make_intern_table():
    from repro.utils.caching import LRUCache

    return memo.register_cache(LRUCache(maxsize=65536))


_INTERN = _make_intern_table()


def _normalise(expr: LinExpr, kind: Kind) -> LinExpr:
    terms = expr.terms
    if not terms:
        return expr
    # Scale to integer coefficients.
    denoms = [c.denominator for c in terms.values()] + [expr.constant.denominator]
    lcm = math.lcm(*denoms)
    expr = expr * lcm
    coefs = [int(c) for c in expr.terms.values()]
    g = math.gcd(*coefs)
    if g > 1:
        if kind is Kind.GE:
            # a.x + c >= 0 with a = g*a'  =>  a'.x + floor(c/g) >= 0 (integers)
            new_terms = {v: c / g for v, c in expr.terms.items()}
            floored = Fraction(math.floor(expr.constant / g))
            expr = LinExpr(new_terms, floored)
        elif expr.constant % g == 0:
            expr = expr / g
    if kind is Kind.EQ:
        first = min(expr.terms)
        if expr.terms[first] < 0:
            expr = -expr
    return expr


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
