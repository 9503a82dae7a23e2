"""Fourier–Motzkin elimination with exact rational arithmetic.

FM computes the *rational* shadow of a polyhedron. For the affine programs
this package handles (loop bounds and subscripts with unit coefficients on
the eliminated variable), the rational shadow coincides with the integer
shadow; ``eliminate(..., require_exact=True)`` enforces that condition and
raises :class:`~repro.errors.CaseSplitError` when it does not hold, so
callers can fall back to enumeration instead of silently using an
over-approximation.

Performance notes (see ``docs/architecture.md``, *Analysis-layer caching*):

- ``eliminate`` and ``project_onto`` are memoised per-process on the
  polyhedron's structural fingerprint, and both cache raised
  ``CaseSplitError``/``PolyhedronError`` outcomes;
- normalised constraints hold ``int`` coefficients (``repro.poly.linexpr``
  stores a ``Fraction`` only for a fractional value), so bound combination,
  pruning and the intern and memo keys add, compare and hash plain ints;
- in the dominant bound combination ``e_lo * (-n) + e_up * p`` both
  factors are usually 1 (unit coefficients, the common case for loop
  nests), and ``LinExpr * 1`` returns the expression itself, so the
  combination costs one addition;
- ``_cheapest_variable`` counts bounds for *all* candidates in one pass
  over the constraints instead of one pass per candidate.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import CaseSplitError, PolyhedronError
from repro.poly import memo
from repro.poly.constraint import Constraint, Kind, ge0
from repro.poly.linexpr import Coef, LinExpr
from repro.poly.polyhedron import Polyhedron

# Safety valve against pathological constraint blowup.
MAX_CONSTRAINTS = 5000


def _prune(constraints: list[Constraint]) -> list[Constraint]:
    """Drop duplicates and syntactically dominated inequalities.

    Two GE constraints with identical variable terms differ only in the
    constant; the smaller constant is the tighter constraint.
    """
    best: dict[object, Constraint] = {}
    order: list[object] = []
    for c in constraints:
        if c.is_trivial_true():
            continue
        # key()[1] is the sorted (var, coef) tuple — cached on the
        # expression, equivalent to the term frozenset but hash-once.
        key = (c.kind, c.expr.key()[1])
        prev = best.get(key)
        if prev is None:
            best[key] = c
            order.append(key)
        elif c.kind is Kind.GE and c.expr.constant < prev.expr.constant:
            best[key] = c
        elif c.kind is Kind.EQ and c.expr != prev.expr:
            # Same terms, different constant: contradictory equalities; keep
            # both so emptiness is detected downstream.
            best[key] = prev
            order.append((key, c.expr.constant))
            best[(key, c.expr.constant)] = c
    return [best[k] for k in order]


def eliminate(poly: Polyhedron, var: str, *, require_exact: bool = False) -> Polyhedron:
    """Existentially eliminate dimension *var*.

    Equalities involving *var* are used for substitution when possible (exact
    for unit coefficients); remaining bounds are combined pairwise.
    """
    if var not in poly.variables:
        raise PolyhedronError(f"{var!r} is not a dimension of {poly!r}")
    return memo.memoize(
        "elim",
        (poly.fingerprint(), var, require_exact),
        lambda: _eliminate(poly, var, require_exact),
    )


def _eliminate(poly: Polyhedron, var: str, require_exact: bool) -> Polyhedron:
    telemetry.counter("poly.fm.eliminations")
    telemetry.counter("poly.fm.constraints_in", len(poly.constraints))
    new_vars = tuple(v for v in poly.variables if v != var)

    # Prefer solving an equality for var.
    for c in poly.constraints:
        a = c.expr.coeff(var)
        if c.kind is Kind.EQ and a != 0:
            if abs(a) != 1 and require_exact:
                raise CaseSplitError(
                    f"eliminating {var}: equality coefficient {a} is not unit"
                )
            rest = c.expr - LinExpr.var(var, a)
            replacement = (-rest) / a
            others = [k for k in poly.constraints if k is not c]
            substituted = [k.substitute({var: replacement}) for k in others]
            return Polyhedron(new_vars, _prune(substituted))

    lowers: list[tuple[Coef, LinExpr]] = []  # (coef>0, expr)
    uppers: list[tuple[Coef, LinExpr]] = []  # (coef<0, expr)
    passthrough: list[Constraint] = []
    for c in poly.constraints:
        a = c.expr.coeff(var)
        if a == 0:
            passthrough.append(c)
        elif a > 0:
            lowers.append((a, c.expr))
        else:
            uppers.append((a, c.expr))

    combined: list[Constraint] = list(passthrough)
    for p, e_lo in lowers:
        for n, e_up in uppers:
            if require_exact and p != 1 and -n != 1:
                raise CaseSplitError(
                    f"eliminating {var}: bound pair with coefficients {p}, {n}"
                )
            new_expr = e_lo * (-n) + e_up * p
            assert new_expr.coeff(var) == 0
            combined.append(ge0(new_expr))
    if len(combined) > MAX_CONSTRAINTS:
        telemetry.counter("poly.fm.blowup")
        raise PolyhedronError(
            f"Fourier–Motzkin blowup eliminating {var!r}: {len(combined)} "
            f"constraints exceed MAX_CONSTRAINTS={MAX_CONSTRAINTS} "
            f"({len(lowers)} lower x {len(uppers)} upper bounds, "
            f"{len(passthrough)} passthrough) while projecting a polyhedron "
            f"over dims {list(poly.variables)}"
        )
    telemetry.counter("poly.fm.constraints_out", len(combined))
    return Polyhedron(new_vars, _prune(combined))


def _cheapest_variable(poly: Polyhedron, candidates: list[str]) -> str:
    """The candidate whose FM growth estimate (lower*upper bound product,
    zero when an equality can substitute it away) is smallest."""
    # One pass over the constraints counts bounds for every candidate at
    # once; selection order (first candidate wins ties) matches the
    # original per-candidate scan exactly.
    wanted = set(candidates)
    counts: dict[str, list[int]] = {v: [0, 0, 0] for v in candidates}  # lo, up, eq
    for c in poly.constraints:
        is_eq = c.kind is Kind.EQ
        for v, a in c.expr.terms_items():
            if v not in wanted:
                continue
            tally = counts[v]
            if is_eq:
                tally[2] += 1
            elif a > 0:
                tally[0] += 1
            else:
                tally[1] += 1
    best_var = candidates[0]
    best_cost: int | None = None
    for v in candidates:
        nlo, nup, neq = counts[v]
        cost = 0 if neq else nlo * nup
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_var = v
    return best_var


def project_onto(
    poly: Polyhedron, keep: list[str] | tuple[str, ...], *, require_exact: bool = False
) -> Polyhedron:
    """Project onto the dimensions in *keep* (order taken from *keep*).

    All other dimensions are existentially eliminated, cheapest-first.
    Parameters are always kept implicitly.
    """
    keep_set = set(keep)
    unknown = keep_set - set(poly.variables)
    if unknown:
        raise PolyhedronError(f"projection targets {sorted(unknown)} are not dimensions")
    return memo.memoize(
        "proj",
        (poly.fingerprint(), ",".join(keep), require_exact),
        lambda: _project_onto(poly, tuple(keep), keep_set, require_exact),
    )


def _project_onto(
    poly: Polyhedron,
    keep: tuple[str, ...],
    keep_set: set[str],
    require_exact: bool,
) -> Polyhedron:
    remaining = [v for v in poly.variables if v not in keep_set]
    current = poly
    while remaining:
        var = _cheapest_variable(current, remaining)
        current = eliminate(current, var, require_exact=require_exact)
        remaining.remove(var)
    return current.with_variables(keep)
