"""Conjunctive integer sets (polyhedra) over an ordered variable tuple.

A :class:`Polyhedron` represents ``{ x in Z^n | C(x, p) }`` where ``x`` is the
ordered tuple of *dimension* variables and ``p`` are symbolic *parameters* —
any names appearing in constraints that are not dimensions (problem sizes
``N``, ``M``, or outer loop variables when solving parametrically).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import hashlib

from repro.errors import PolyhedronError
from repro.poly.constraint import Constraint, Kind
from repro.poly.linexpr import Coef, LinExpr


class Polyhedron:
    """Immutable conjunction of affine constraints over named dimensions.

    Equality is set equality of the constraints, but the structural
    :meth:`fingerprint` keeps constraint *order*: equal sets built in
    different orders have distinct fingerprints, so memoised analysis
    results (keyed by fingerprint) can never reorder downstream output.
    """

    __slots__ = ("variables", "constraints", "_fp")

    def __init__(self, variables: Sequence[str], constraints: Iterable[Constraint] = ()):
        vars_tuple = tuple(variables)
        if len(set(vars_tuple)) != len(vars_tuple):
            raise PolyhedronError(f"duplicate dimension names in {vars_tuple}")
        # Deduplicate while preserving order; drop trivially-true constraints.
        kept: list[Constraint] = []
        for c in dict.fromkeys(constraints):
            if not isinstance(c, Constraint):
                raise TypeError(f"expected Constraint, got {type(c).__name__}")
            if not c.is_trivial_true():
                kept.append(c)
        self.variables: tuple[str, ...] = vars_tuple
        self.constraints: tuple[Constraint, ...] = tuple(kept)
        self._fp = None

    def __reduce__(self):
        return (Polyhedron, (self.variables, self.constraints))

    def fingerprint(self) -> str:
        """Stable structural digest (dimension order + ordered constraints).

        Process-independent (unlike ``hash()``); it keys the analysis
        memo.
        """
        if self._fp is None:
            text = "|".join(
                [",".join(self.variables)]
                + [c.fingerprint_text() for c in self.constraints]
            )
            self._fp = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        return self._fp

    # -- basic queries -----------------------------------------------------
    def parameters(self) -> frozenset[str]:
        """Names used in constraints that are not dimensions."""
        dims = set(self.variables)
        names: set[str] = set()
        for c in self.constraints:
            names.update(v for v in c.variables() if v not in dims)
        return frozenset(names)

    def is_trivially_empty(self) -> bool:
        """True iff some constraint is a constant contradiction."""
        return any(c.is_trivial_false() for c in self.constraints)

    def contains(self, env: Mapping[str, Coef]) -> bool:
        """True iff the full binding *env* satisfies every constraint."""
        return all(c.satisfied(env) for c in self.constraints)

    def equalities(self) -> tuple[Constraint, ...]:
        """The equality constraints."""
        return tuple(c for c in self.constraints if c.kind is Kind.EQ)

    def inequalities(self) -> tuple[Constraint, ...]:
        """The inequality constraints."""
        return tuple(c for c in self.constraints if c.kind is Kind.GE)

    # -- construction ---------------------------------------------------------
    def with_constraints(self, extra: Iterable[Constraint]) -> "Polyhedron":
        """A new polyhedron with *extra* constraints conjoined."""
        return Polyhedron(self.variables, list(self.constraints) + list(extra))

    def with_variables(self, variables: Sequence[str]) -> "Polyhedron":
        """Same constraints, different dimension tuple (add/drop dims)."""
        return Polyhedron(variables, self.constraints)

    def substitute(self, bindings: Mapping[str, LinExpr | Coef]) -> "Polyhedron":
        """Substitute variables by affine expressions.

        Substituted dimensions are removed from the dimension tuple.
        """
        new_vars = tuple(v for v in self.variables if v not in bindings)
        return Polyhedron(new_vars, [c.substitute(bindings) for c in self.constraints])

    def rename(self, mapping: Mapping[str, str]) -> "Polyhedron":
        """Rename dimensions (and any matching parameter names)."""
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        return Polyhedron(new_vars, [c.rename(mapping) for c in self.constraints])

    # -- bounds ------------------------------------------------------------------
    def bounds_on(self, var: str) -> tuple[list[LinExpr], list[LinExpr]]:
        """Affine lower/upper bound expressions for *var* from constraints
        mentioning it.

        Returns ``(lowers, uppers)`` such that each ``lo <= var`` and
        ``var <= up``; bounds may reference other dimensions and parameters.
        Equalities contribute to both sides.
        """
        lowers: list[LinExpr] = []
        uppers: list[LinExpr] = []
        for c in self.constraints:
            a = c.expr.coeff(var)
            if a == 0:
                continue
            rest = c.expr - LinExpr.var(var, a)
            # a*var + rest >= 0  =>  var >= -rest/a (a>0) or var <= -rest/a (a<0)
            bound = (-rest) / a
            if c.kind is Kind.EQ:
                lowers.append(bound)
                uppers.append(bound)
            elif a > 0:
                lowers.append(bound)
            else:
                uppers.append(bound)
        return lowers, uppers

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return self.variables == other.variables and set(self.constraints) == set(
            other.constraints
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.constraints)))

    def __repr__(self) -> str:
        return f"Polyhedron(vars={list(self.variables)}, {len(self.constraints)} constraints)"

    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{{ ({', '.join(self.variables)}) : {body} }}"
