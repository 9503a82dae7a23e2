"""Integer polyhedra over named variables with exact rational arithmetic.

This subpackage is a from-scratch replacement for the slice of isl / Omega /
PIP functionality the paper's algorithm needs:

- :mod:`repro.poly.linexpr` — affine expressions ``sum c_i * x_i + c0`` with
  exact coefficients: an ``int`` unless the value is fractional, then a
  :class:`fractions.Fraction`.
- :mod:`repro.poly.constraint` — ``e >= 0`` / ``e == 0`` constraints with
  integer normalisation and tightening.
- :mod:`repro.poly.polyhedron` — conjunctions of constraints over an ordered
  variable tuple.
- :mod:`repro.poly.fm` — exact Fourier–Motzkin elimination (rational) on
  integer rows: one core for projection and rational emptiness, with
  unit-coefficient integer-exactness checks.
- :mod:`repro.poly.integer` — integer feasibility via substitution of
  equalities + bounded branch-and-bound search, and :func:`implies`, the
  one implication test (guard pruning, loop-bound domination).
- :mod:`repro.poly.enumerate` — integer-point enumeration, the witness
  search behind integer feasibility and the oracle used by tests.
"""

from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.enumerate import enumerate_points
from repro.poly.fm import project_onto
from repro.poly.integer import find_integer_point, implies, integer_feasible
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

__all__ = [
    "LinExpr",
    "Constraint",
    "ge0",
    "eq0",
    "Polyhedron",
    "project_onto",
    "integer_feasible",
    "find_integer_point",
    "implies",
    "enumerate_points",
]
