"""Affine (linear + constant) expressions over named variables.

``LinExpr`` is the canonical affine representation used throughout the
dependence analysis and code generation: loop bounds, array subscripts,
dependence-distance objectives and symbolic tile sizes are all ``LinExpr``
instances over loop variables and problem-size parameters (``N``, ``M``).

Coefficients are :class:`fractions.Fraction` so all arithmetic is exact;
Fourier–Motzkin elimination divides by coefficients and would be unsound in
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Mapping, Union

Coef = Union[int, Fraction]


def _frac(value: Coef) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"coefficient must be rational, got {type(value).__name__}")


def _fadd(a: Fraction, b: Fraction) -> Fraction:
    """Fraction addition with an integer fast path.

    The common case throughout Fourier–Motzkin is denominator-1 values;
    adding those as plain ints skips ``Fraction.__add__``'s gcd work.
    """
    if a.denominator == 1 and b.denominator == 1:
        return Fraction(a.numerator + b.numerator)
    return a + b


class LinExpr:
    """An immutable affine expression ``sum(coef[v] * v) + const``.

    Zero coefficients are never stored, so two equal expressions always have
    identical term dictionaries; this makes ``__eq__``/``__hash__`` cheap and
    reliable. The canonical :meth:`key` (terms sorted by variable name) is
    computed once and backs structural fingerprints and memo keys.
    """

    __slots__ = ("_terms", "_const", "_hash", "_key")

    def __init__(self, terms: Mapping[str, Coef] | None = None, const: Coef = 0):
        items = {}
        if terms:
            for var, coef in terms.items():
                if not isinstance(var, str):
                    raise TypeError(f"variable name must be str, got {var!r}")
                f = _frac(coef)
                if f != 0:
                    items[var] = f
        self._terms: dict[str, Fraction] = items
        self._const: Fraction = _frac(const)
        self._hash: int | None = None
        self._key: tuple | None = None

    @classmethod
    def _raw(cls, terms: dict[str, Fraction], const: Fraction) -> "LinExpr":
        """Internal fast constructor: *terms* must already be a fresh dict
        of nonzero ``Fraction`` values and *const* a ``Fraction``."""
        self = object.__new__(cls)
        self._terms = terms
        self._const = const
        self._hash = None
        self._key = None
        return self

    # -- constructors -----------------------------------------------------
    @staticmethod
    def const(value: Coef) -> "LinExpr":
        """The constant expression *value*."""
        return LinExpr({}, value)

    @staticmethod
    def var(name: str, coef: Coef = 1) -> "LinExpr":
        """The expression ``coef * name``."""
        return LinExpr({name: coef}, 0)

    # -- inspection --------------------------------------------------------
    @property
    def terms(self) -> dict[str, Fraction]:
        """Variable -> coefficient mapping (zero coefficients omitted)."""
        return dict(self._terms)

    @property
    def constant(self) -> Fraction:
        """The constant term."""
        return self._const

    def terms_items(self):
        """Live ``(var, coef)`` items view — read-only by convention; the
        hot analysis paths use it to avoid the defensive copy of
        :attr:`terms`."""
        return self._terms.items()

    def key(self) -> tuple:
        """Canonical hashable identity: ``(const, ((var, coef), ...))``
        with terms sorted by variable name (computed once)."""
        if self._key is None:
            self._key = (self._const, tuple(sorted(self._terms.items())))
        return self._key

    def fingerprint_text(self) -> str:
        """Deterministic text form backing structural fingerprints (unlike
        ``hash()``, stable across processes)."""
        const, terms = self.key()
        return f"{const}:" + ",".join(f"{v}*{c}" for v, c in terms)

    def coeff(self, var: str) -> Fraction:
        """Coefficient of *var* (0 if absent)."""
        return self._terms.get(var, Fraction(0))

    def variables(self) -> frozenset[str]:
        """The set of variables with non-zero coefficient."""
        return frozenset(self._terms)

    def is_constant(self) -> bool:
        """True iff no variable appears."""
        return not self._terms

    def is_integral(self) -> bool:
        """True iff all coefficients and the constant are integers."""
        return self._const.denominator == 1 and all(
            c.denominator == 1 for c in self._terms.values()
        )

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "LinExpr | Coef") -> "LinExpr":
        other = _coerce(other)
        terms = dict(self._terms)
        for var, coef in other._terms.items():
            prev = terms.get(var)
            if prev is None:
                terms[var] = coef
            else:
                merged = _fadd(prev, coef)
                if merged == 0:
                    del terms[var]
                else:
                    terms[var] = merged
        return LinExpr._raw(terms, _fadd(self._const, other._const))

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._raw(
            {v: -c for v, c in self._terms.items()}, -self._const
        )

    def __sub__(self, other: "LinExpr | Coef") -> "LinExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LinExpr | Coef") -> "LinExpr":
        return _coerce(other) + (-self)

    def __mul__(self, scalar: Coef) -> "LinExpr":
        f = _frac(scalar)
        if f == 0:
            return LinExpr._raw({}, Fraction(0))
        # Fraction products of nonzero factors are nonzero, so the no-zero
        # invariant survives without re-filtering.
        return LinExpr._raw(
            {v: c * f for v, c in self._terms.items()}, self._const * f
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coef) -> "LinExpr":
        f = _frac(scalar)
        if f == 0:
            raise ZeroDivisionError("division of LinExpr by zero")
        return self * (Fraction(1) / f)

    # -- substitution / evaluation ------------------------------------------
    def substitute(self, bindings: Mapping[str, "LinExpr | Coef"]) -> "LinExpr":
        """Replace each bound variable by an affine expression."""
        terms: dict[str, Fraction] = {}
        const = self._const
        for var, coef in self._terms.items():
            bound = bindings.get(var)
            if bound is None and var not in bindings:
                prev = terms.get(var)
                merged = coef if prev is None else _fadd(prev, coef)
                if merged == 0:
                    terms.pop(var, None)
                else:
                    terms[var] = merged
                continue
            replacement = _coerce(bound)
            const = _fadd(const, replacement._const * coef)
            for v, c in replacement._terms.items():
                prev = terms.get(v)
                merged = c * coef if prev is None else _fadd(prev, c * coef)
                if merged == 0:
                    terms.pop(v, None)
                else:
                    terms[v] = merged
        return LinExpr._raw(terms, const)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables; unmapped variables keep their names."""
        terms: dict[str, Fraction] = {}
        for var, coef in self._terms.items():
            new = mapping.get(var, var)
            prev = terms.get(new)
            merged = coef if prev is None else _fadd(prev, coef)
            if merged == 0:
                terms.pop(new, None)
            else:
                terms[new] = merged
        return LinExpr._raw(terms, self._const)

    def evaluate(self, env: Mapping[str, Coef]) -> Fraction:
        """Evaluate with every variable bound in *env*."""
        total = self._const
        for var, coef in self._terms.items():
            if var not in env:
                raise KeyError(f"unbound variable {var!r} in LinExpr.evaluate")
            total += coef * _frac(env[var])
        return total

    # -- comparisons / hashing -----------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._const == other._const and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._const, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LinExpr({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for var in sorted(self._terms):
            coef = self._terms[var]
            if coef == 1:
                parts.append(f"+ {var}")
            elif coef == -1:
                parts.append(f"- {var}")
            elif coef < 0:
                parts.append(f"- {-coef}*{var}")
            else:
                parts.append(f"+ {coef}*{var}")
        if self._const != 0 or not parts:
            sign = "-" if self._const < 0 else "+"
            parts.append(f"{sign} {abs(self._const)}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text


def _coerce(value: "LinExpr | Coef") -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr.const(value)
