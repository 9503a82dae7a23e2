"""Affine (linear + constant) expressions over named variables.

``LinExpr`` is the canonical affine representation used throughout the
dependence analysis and code generation: loop bounds, array subscripts,
dependence-distance objectives and symbolic tile sizes are all ``LinExpr``
instances over loop variables and problem-size parameters (``N``, ``M``).

Arithmetic is exact: bounds divide by coefficients and would be unsound in
floating point. A stored coefficient or constant is an ``int`` when it is
integral and a :class:`fractions.Fraction` only when it is not
(:func:`_coef` enforces this after every operation). Normalised
constraints have integer coefficients, which Fourier–Motzkin
(:mod:`repro.poly.fm`) reads as integer rows; ``int`` and ``Fraction`` of
equal value hash, compare and print alike, so keys and fingerprints do not
depend on the type.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral, Rational
from typing import Mapping, Union

Coef = Union[int, Fraction]


def _coef(value: Coef) -> Coef:
    """*value* as an ``int`` if it is integral, else as a ``Fraction``."""
    if value.__class__ is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Rational):
        return _coef(Fraction(value))
    raise TypeError(f"coefficient must be rational, got {type(value).__name__}")


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
                c = _coef(coef)
                if c != 0:
                    items[var] = c
        self._terms: dict[str, Coef] = items
        self._const: Coef = _coef(const)
        self._hash: int | None = None
        self._key: tuple | None = None

    @classmethod
    def _raw(cls, terms: dict[str, Coef], const: Coef) -> "LinExpr":
        """Internal fast constructor: *terms* must already be a fresh dict
        of nonzero coefficients and every value, *const* included, must
        already be normalised by :func:`_coef`."""
        self = object.__new__(cls)
        self._terms = terms
        self._const = const
        self._hash = None
        self._key = None
        return self

    def __reduce__(self):
        # Rebuilt from its terms, so no cached hash crosses processes.
        return (LinExpr, (self._terms, self._const))

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
    def terms(self) -> dict[str, Coef]:
        """Variable -> coefficient mapping (zero coefficients omitted)."""
        return dict(self._terms)

    @property
    def constant(self) -> Coef:
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

    def coeff(self, var: str) -> Coef:
        """Coefficient of *var* (0 if absent)."""
        return self._terms.get(var, 0)

    def variables(self) -> frozenset[str]:
        """The set of variables with non-zero coefficient."""
        return frozenset(self._terms)

    def is_constant(self) -> bool:
        """True iff no variable appears."""
        return not self._terms

    def is_integral(self) -> bool:
        """True iff all coefficients and the constant are integers."""
        return self._const.__class__ is int and all(
            c.__class__ is int for c in self._terms.values()
        )

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "LinExpr | Coef") -> "LinExpr":
        other = _coerce(other)
        terms = dict(self._terms)
        for var, coef in other._terms.items():
            merged = terms.get(var, 0) + coef
            if merged == 0:
                del terms[var]
            else:
                terms[var] = _coef(merged)
        return LinExpr._raw(terms, _coef(self._const + other._const))

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
        f = _coef(scalar)
        if f == 1:
            return self
        if f == 0:
            return LinExpr._raw({}, 0)
        # Products of nonzero factors are nonzero, so the no-zero
        # invariant survives without re-filtering.
        return LinExpr._raw(
            {v: _coef(c * f) for v, c in self._terms.items()}, _coef(self._const * f)
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coef) -> "LinExpr":
        f = _coef(scalar)
        if f == 0:
            raise ZeroDivisionError("division of LinExpr by zero")
        # Fraction(1) / f, never 1 / f: int / int is a float.
        return self * (Fraction(1) / f)

    # -- substitution / evaluation ------------------------------------------
    def substitute(self, bindings: Mapping[str, "LinExpr | Coef"]) -> "LinExpr":
        """Replace each bound variable by an affine expression."""
        terms: dict[str, Coef] = {}
        const = self._const
        for var, coef in self._terms.items():
            bound = bindings.get(var)
            if bound is None and var not in bindings:
                merged = terms.get(var, 0) + coef
                if merged == 0:
                    terms.pop(var, None)
                else:
                    terms[var] = _coef(merged)
                continue
            replacement = _coerce(bound)
            const = const + replacement._const * coef
            for v, c in replacement._terms.items():
                merged = terms.get(v, 0) + c * coef
                if merged == 0:
                    terms.pop(v, None)
                else:
                    terms[v] = _coef(merged)
        return LinExpr._raw(terms, _coef(const))

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables; unmapped variables keep their names."""
        terms: dict[str, Coef] = {}
        for var, coef in self._terms.items():
            new = mapping.get(var, var)
            merged = terms.get(new, 0) + coef
            if merged == 0:
                terms.pop(new, None)
            else:
                terms[new] = _coef(merged)
        return LinExpr._raw(terms, self._const)

    def evaluate(self, env: Mapping[str, Coef]) -> Coef:
        """Evaluate with every variable bound in *env*."""
        total = self._const
        for var, coef in self._terms.items():
            if var not in env:
                raise KeyError(f"unbound variable {var!r} in LinExpr.evaluate")
            total += coef * _coef(env[var])
        return _coef(total)

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
