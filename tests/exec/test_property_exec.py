"""Property test: the compiled executor agrees with the interpreter on
randomly generated affine programs, traces included.

The generator builds small but adversarial programs: nested triangular
loops that may run zero times, guards, a float accumulator, an integer
pivot index assigned inside the nest and used in subscripts (LU's ``m``),
a 2-D array subscripted by outer and inner loop variables, and ``Select``
arms that load the same element.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exec.compiled import run_compiled
from repro.ir.builder import assign, cge, cle, idx, if_, loop, sym, val
from repro.ir.expr import ArrayRef, BinOp, Expr, Select
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from tests.exec.interp import crosscheck_traces

N = sym("N")
S = sym("s")


def _ref(draw, names: list[str]) -> ArrayRef:
    """``A(x)`` or ``B(x, y)``; every name in *names* holds a value in
    [1, N] wherever it is read, so the subscripts stay in bounds."""
    first = sym(draw(st.sampled_from(names)))
    if draw(st.booleans()):
        return idx("A", first)
    return idx("B", first, sym(draw(st.sampled_from(names))))


@st.composite
def small_expr(draw, depth: int, names: list[str]) -> Expr:
    """A float-valued expression over A, B, s and the index names."""
    if depth <= 0 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return val(draw(st.floats(-2, 2, allow_nan=False, width=32)))
        if choice == 1:
            return _ref(draw, names)
        if choice == 2:
            # Both arms load the same element: an index temporary of one
            # arm must not be reused in the other.
            ref = _ref(draw, names)
            cond = cge(sym(draw(st.sampled_from(names))), val(draw(st.integers(1, 4))))
            return Select(cond, ref * val(2.0), ref + S)
        return S
    op = draw(st.sampled_from(["+", "-", "*"]))
    lhs = draw(small_expr(depth - 1, names))
    rhs = draw(small_expr(depth - 1, names))
    return BinOp(op, lhs, rhs)


@st.composite
def small_stmt(draw, names: list[str], loop_vars: list[str]):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        # The pivot index: an integer scalar assigned inside the loop.
        return assign("m", sym(draw(st.sampled_from(loop_vars))))
    value = draw(small_expr(2, names))
    if kind == 1:
        return assign("s", value)
    return assign(_ref(draw, names), value)


@st.composite
def small_program(draw) -> Program:
    depth = draw(st.integers(1, 3))
    loop_vars = [f"v{d}" for d in range(depth)]
    names = loop_vars + ["m"]
    body = draw(st.lists(small_stmt(names, loop_vars), min_size=1, max_size=4))
    if draw(st.booleans()):
        guard = cge(sym(loop_vars[-1]), val(2))
        body = [if_(guard, body, [assign("s", val(0.5))])]
    for d in reversed(range(depth)):
        outer = sym(loop_vars[d - 1]) if d else None
        # v + 1 runs zero times at v = N, and N - 1 at N = 1.
        lo = draw(st.sampled_from([outer, outer + 1])) if d else val(1)
        hi = draw(st.sampled_from([N, N - 1]))
        nest = [loop(loop_vars[d], lo, hi, body)]
        if d and draw(st.booleans()):
            # The pivot changes between entries of the inner loop.
            nest.insert(0, assign("m", outer))
        body = nest
    return Program(
        "rand",
        ("N",),
        (ArrayDecl("A", (N,)), ArrayDecl("B", (N, N))),
        (ScalarDecl("s"), ScalarDecl("m", "i8")),
        (assign("m", val(1)), *body),
        outputs=("A", "B", "m"),
    )


@given(small_program(), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_compiled_matches_interpreted(program, n, seed):
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-1, 1, n), "B": rng.uniform(-1, 1, (n, n))}
    ra, rb = crosscheck_traces(program, {"N": n}, inputs)
    assert np.isclose(ra.scalars["s"], rb.scalars["s"], equal_nan=True)


@given(st.integers(2, 9), st.integers(1, 5))
def test_triangular_guarded_sum(n, m):
    """A closed-form check: count lattice points of a guarded triangle."""
    body = loop(
        "i",
        1,
        N,
        [
            loop(
                "j",
                sym("i"),
                N,
                [if_(cle(sym("j"), val(m)), [assign("s", sym("s") + 1.0)])],
            )
        ],
    )
    p = Program("tri", ("N",), (ArrayDecl("A", (N,)),), (ScalarDecl("s"),), (body,))
    out = run_compiled(p, {"N": n})
    expected = sum(1 for i in range(1, n + 1) for j in range(i, n + 1) if j <= m)
    assert out.scalars["s"] == expected
    assert out.counters.loop_iters == n + sum(n - i + 1 for i in range(1, n + 1))
