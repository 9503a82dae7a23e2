"""Fourier–Motzkin elimination on integer rows.

FM computes the *rational* shadow of a polyhedron. For the affine programs
this package handles (loop bounds and subscripts with unit coefficients on
the eliminated variable), the rational shadow coincides with the integer
shadow; ``project_onto(..., require_exact=True)`` enforces that condition and
raises :class:`~repro.errors.CaseSplitError` when it does not hold, so
callers can fall back to enumeration instead of silently using an
over-approximation.

One core does every elimination. A polyhedron's constraints are read once
into rows ``(is_eq, {var: coef}, const)`` (a constraint ``sum coef*var +
const >= 0``, or ``== 0``), each step rewrites the rows, and a
:class:`Polyhedron` of normalised constraints is built only for a result.
A step leaves the rows the polyhedron of that step would hold:

- the first equality (in constraint order) that mentions the variable
  substitutes it away; every other row is scaled by ``|a|`` so it stays
  integral;
- otherwise each lower bound ``p*v + lo >= 0`` meets each upper bound
  ``n*v + up >= 0`` (``n < 0``) as ``lo*(-n) + up*p >= 0``;
- each new row is put in the constraints' normal form
  (:func:`~repro.poly.constraint.normal_row`), and :func:`_prune` then
  drops trivially true, dominated and duplicate rows.

Performance notes (see ``docs/architecture.md``, *Analysis-layer caching*):

- ``project_onto`` and ``rationally_empty`` are memoised per-process on
  the polyhedron's structural fingerprint, and cache raised
  ``CaseSplitError`` / ``PolyhedronError`` outcomes; the steps inside
  one call are not memoised;
- a step allocates only dicts and tuples: no ``LinExpr``,
  ``Constraint`` or ``Polyhedron``, no fingerprint and no memo lookup;
- an emptiness test (:func:`rationally_empty`) stops at the first constant
  contradiction, and a step that would exceed ``MAX_CONSTRAINTS`` raises
  before it combines any bound pair;
- ``_cheapest`` counts bounds for *all* candidates in one pass over the
  rows.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import CaseSplitError, PolyhedronError
from repro.poly import memo
from repro.poly.constraint import Constraint, Kind, Row, normal_row
from repro.poly.linexpr import Coef, LinExpr
from repro.poly.polyhedron import Polyhedron

# Safety valve against pathological constraint blowup.
MAX_CONSTRAINTS = 5000


def _rows(poly: Polyhedron) -> list[Row]:
    return [
        (c.kind is Kind.EQ, c.expr._terms, c.expr._const) for c in poly.constraints
    ]


def _constraints(rows: list[Row]) -> list[Constraint]:
    """The constraints of normal rows (every row :func:`_project` keeps)."""
    return [
        Constraint.normal(LinExpr._raw(dict(terms), const), Kind.EQ if is_eq else Kind.GE)
        for is_eq, terms, const in rows
    ]


def _is_false(is_eq: bool, const: Coef) -> bool:
    """Is the constant row ``const == 0`` / ``const >= 0`` a contradiction?"""
    return const != 0 if is_eq else const < 0


def _prune(rows: list[Row]) -> list[Row]:
    """Drop trivially true rows, duplicates and syntactically dominated
    inequalities, keeping first-occurrence order.

    Two ``>=`` rows with identical variable terms differ only in the
    constant; the smaller constant is the tighter row and takes the
    first one's place. Equalities with the same terms and different
    constants contradict each other; all are kept, so emptiness is
    detected downstream.
    """
    best: dict[object, Row] = {}
    order: list[object] = []
    for row in rows:
        is_eq, terms, const = row
        if not terms and not _is_false(is_eq, const):
            continue
        key = (is_eq, frozenset(terms.items()))
        prev = best.get(key)
        if prev is None:
            best[key] = row
            order.append(key)
        elif not is_eq:
            if const < prev[2]:
                best[key] = row
        elif const != prev[2]:
            other = (key, const)
            if other not in best:
                order.append(other)
            best[other] = row
    return [best[k] for k in order]


def _sum(
    t1: dict[str, int], m1: int, t2: dict[str, int], m2: int, var: str
) -> dict[str, int]:
    """The terms of ``m1*t1 + m2*t2`` without *var* (whose terms cancel)."""
    out = {v: c * m1 for v, c in t1.items() if v != var}
    for v, c in t2.items():
        if v != var:
            merged = out.get(v, 0) + c * m2
            if merged:
                out[v] = merged
            else:
                del out[v]
    return out


def _substitute(
    rows: list[Row], var: str, eq: Row, until_empty: bool
) -> list[Row] | None:
    """Substitute *var* away with the equality *eq* (not among *rows*)."""
    s_terms, s_const = eq[1], eq[2]
    a = s_terms[var]
    scale = abs(a)
    out: list[Row] = []
    for row in rows:
        is_eq, terms, const = row
        b = terms.get(var)
        if b is None:
            out.append(row)
            continue
        # scale * row - sign(a) * b * eq: the var terms cancel.
        f = -b if a > 0 else b
        new = _sum(terms, scale, s_terms, f, var)
        row = normal_row(is_eq, new, const * scale + s_const * f, scale)
        if until_empty and not row[1] and _is_false(is_eq, row[2]):
            return None
        out.append(row)
    return out


def _combine(
    rows: list[Row], var: str, dims: list[str], require_exact: bool, until_empty: bool
) -> list[Row] | None:
    """Eliminate *var* by combining each lower bound with each upper bound."""
    out: list[Row] = []
    lowers: list[Row] = []
    uppers: list[Row] = []
    for row in rows:
        a = row[1].get(var)
        if a is None:
            out.append(row)
        elif a > 0:
            lowers.append(row)
        else:
            uppers.append(row)
    if require_exact:
        p = next((r[1][var] for r in lowers if r[1][var] != 1), None)
        n = next((r[1][var] for r in uppers if r[1][var] != -1), None)
        if p is not None and n is not None:
            raise CaseSplitError(
                f"eliminating {var}: bound pair with coefficients {p}, {n}"
            )
    total = len(out) + len(lowers) * len(uppers)
    if total > MAX_CONSTRAINTS:
        telemetry.counter("poly.fm.blowup")
        raise PolyhedronError(
            f"Fourier–Motzkin blowup eliminating {var!r}: {total} "
            f"constraints exceed MAX_CONSTRAINTS={MAX_CONSTRAINTS} "
            f"({len(lowers)} lower x {len(uppers)} upper bounds, "
            f"{len(out)} passthrough) while projecting a polyhedron "
            f"over dims {dims}"
        )
    for _, lo, lo_const in lowers:
        p = lo[var]
        for _, up, up_const in uppers:
            n = -up[var]
            new = _sum(lo, n, up, p, var)
            row = normal_row(False, new, lo_const * n + up_const * p)
            if until_empty and not row[1] and _is_false(False, row[2]):
                return None
            out.append(row)
    return out


def _step(
    rows: list[Row], var: str, dims: list[str], require_exact: bool, until_empty: bool
) -> list[Row] | None:
    """Eliminate *var* from *rows* (the rows of a polyhedron over *dims*).

    None when *until_empty* and a constant contradiction appears.
    """
    telemetry.counter("poly.fm.eliminations")
    telemetry.counter("poly.fm.constraints_in", len(rows))
    for k, row in enumerate(rows):
        if row[0] and var in row[1]:
            a = row[1][var]
            if abs(a) != 1 and require_exact:
                raise CaseSplitError(
                    f"eliminating {var}: equality coefficient {a} is not unit"
                )
            out = _substitute(rows[:k] + rows[k + 1 :], var, row, until_empty)
            break
    else:
        out = _combine(rows, var, dims, require_exact, until_empty)
    if out is None:
        return None
    telemetry.counter("poly.fm.constraints_out", len(out))
    return _prune(out)


def _cheapest(rows: list[Row], candidates: list[str]) -> str:
    """The candidate whose FM growth estimate (lower*upper bound product,
    zero when an equality can substitute it away) is smallest; the first
    candidate wins ties."""
    if len(candidates) == 1:
        return candidates[0]
    counts: dict[str, list[int]] = {v: [0, 0, 0] for v in candidates}  # lo, up, eq
    for is_eq, terms, _ in rows:
        for v, a in terms.items():
            tally = counts.get(v)
            if tally is None:
                continue
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


def _project(
    rows: list[Row],
    dims: tuple[str, ...],
    drop: list[str],
    require_exact: bool = False,
    until_empty: bool = False,
) -> list[Row] | None:
    """Eliminate every name in *drop*, cheapest first (ties to the earlier
    name). None when *until_empty* and a constant contradiction appears."""
    dims_left = list(dims)
    drop = list(drop)
    while drop:
        var = _cheapest(rows, drop)
        rows = _step(rows, var, dims_left, require_exact, until_empty)
        if rows is None:
            return None
        drop.remove(var)
        dims_left.remove(var)
    return rows


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

    def compute() -> Polyhedron:
        drop = [v for v in poly.variables if v not in keep_set]
        if not drop:
            return poly.with_variables(keep)
        rows = _project(_rows(poly), poly.variables, drop, require_exact)
        return Polyhedron(keep, _constraints(rows))

    return memo.memoize(
        "proj", (poly.fingerprint(), ",".join(keep), require_exact), compute
    )


def rationally_empty(poly: Polyhedron) -> bool:
    """True iff the rational relaxation (parameters existential) is empty.

    Eliminates every dimension and parameter, cheapest first (ties go to
    the dimensions in order, then the parameters by name), and stops at
    the first constant contradiction, so a later step that would exceed
    ``MAX_CONSTRAINTS`` is never taken.
    """
    if poly.is_trivially_empty():
        return True

    def compute() -> bool:
        names = tuple(poly.variables) + tuple(sorted(poly.parameters()))
        return _project(_rows(poly), names, list(names), until_empty=True) is None

    return memo.memoize("rempty", (poly.fingerprint(),), compute)
