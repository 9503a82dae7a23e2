"""Property tests: the integer core against a ``Fraction``-only oracle.

``LinExpr`` stores a coefficient or constant as an ``int`` when it is
integral and as a ``Fraction`` only when it is not. :class:`Oracle` is the
arithmetic with every value a ``Fraction``; random chains of sums,
negations, scalings, divisions, substitutions and renames must give the
same value, ``key()``, ``fingerprint_text()`` and ``str()`` on both, and
every stored value must be an ``int`` exactly when it is integral.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from repro.poly.constraint import eq0, ge0
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

VARS = ("i", "j", "k", "N")


class Oracle:
    """An affine expression whose every coefficient is a ``Fraction``."""

    def __init__(self, terms: dict, const) -> None:
        self.terms = {v: Fraction(c) for v, c in terms.items() if c != 0}
        self.const = Fraction(const)

    @staticmethod
    def of(e: LinExpr) -> "Oracle":
        return Oracle(e.terms, e.constant)

    def __add__(self, other: "Oracle") -> "Oracle":
        terms = dict(self.terms)
        for v, c in other.terms.items():
            terms[v] = terms.get(v, Fraction(0)) + c
        return Oracle(terms, self.const + other.const)

    def __neg__(self) -> "Oracle":
        return self.scale(Fraction(-1))

    def scale(self, f: Fraction) -> "Oracle":
        return Oracle({v: c * f for v, c in self.terms.items()}, self.const * f)

    def substitute(self, bindings: dict) -> "Oracle":
        out = Oracle({}, self.const)
        for v, c in self.terms.items():
            out = out + (bindings[v] if v in bindings else Oracle({v: 1}, 0)).scale(c)
        return out

    def rename(self, mapping: dict) -> "Oracle":
        out = Oracle({}, self.const)
        for v, c in self.terms.items():
            out = out + Oracle({mapping.get(v, v): c}, 0)
        return out

    def evaluate(self, env: dict) -> Fraction:
        return self.const + sum((c * env[v] for v, c in self.terms.items()), Fraction(0))

    def key(self) -> tuple:
        return (self.const, tuple(sorted(self.terms.items())))

    def fingerprint_text(self) -> str:
        const, terms = self.key()
        return f"{const}:" + ",".join(f"{v}*{c}" for v, c in terms)

    def __str__(self) -> str:
        parts = []
        for v in sorted(self.terms):
            c = self.terms[v]
            if c == 1:
                parts.append(f"+ {v}")
            elif c == -1:
                parts.append(f"- {v}")
            elif c < 0:
                parts.append(f"- {-c}*{v}")
            else:
                parts.append(f"+ {c}*{v}")
        if self.const != 0 or not parts:
            parts.append(f"{'-' if self.const < 0 else '+'} {abs(self.const)}")
        text = " ".join(parts)
        if text.startswith("+ "):
            return text[2:]
        return "-" + text[2:] if text.startswith("- ") else text


def oracle_normalise(o: Oracle, is_eq: bool) -> Oracle:
    """``Constraint`` normalisation computed in ``Fraction``s."""
    if not o.terms:
        return o
    o = o.scale(Fraction(math.lcm(o.const.denominator, *(c.denominator for c in o.terms.values()))))
    g = math.gcd(*(int(c) for c in o.terms.values()))
    if g > 1 and not is_eq:
        o = Oracle({v: c / g for v, c in o.terms.items()}, math.floor(o.const / g))
    elif g > 1 and o.const % g == 0:
        o = o.scale(Fraction(1, g))
    if is_eq and o.terms[min(o.terms)] < 0:
        o = -o
    return o


def stored(e: LinExpr) -> list:
    return [e.constant, *(c for _, c in e.terms_items())]


def assert_canonical(e: LinExpr) -> None:
    """Every stored value is an ``int`` exactly when it is integral."""
    for c in stored(e):
        assert type(c) is (int if c.denominator == 1 else Fraction), (e, c)


def assert_agrees(e: LinExpr, o: Oracle) -> None:
    assert_canonical(e)
    assert e.key() == o.key() and hash(e.key()) == hash(o.key())
    assert e.fingerprint_text() == o.fingerprint_text()
    assert str(e) == str(o)
    env = {v: n for n, v in enumerate(VARS, start=2)}
    assert e.evaluate(env) == o.evaluate(env)
    assert_canonical(LinExpr.const(e.evaluate(env)))


integral = st.integers(-6, 6)
# Fractions with denominators up to 4, integral ones (Fraction(2, 1)) included.
fractional = st.fractions(min_value=-4, max_value=4, max_denominator=4)
coefs = st.one_of(integral, fractional)
nonzero = coefs.filter(lambda c: c != 0)


@st.composite
def exprs(draw, values=coefs):
    names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=len(VARS)))
    return LinExpr({v: draw(values) for v in names}, draw(values))


OPS = ("add", "radd", "sub", "rsub", "neg", "mul", "rmul", "div", "substitute", "rename")


@st.composite
def steps(draw):
    op = draw(st.sampled_from(OPS))
    if op in ("add", "sub"):
        return op, draw(st.one_of(exprs(), coefs))
    if op in ("radd", "rsub", "mul", "rmul"):
        return op, draw(coefs)
    if op == "div":
        return op, draw(nonzero)
    if op == "substitute":
        keys = draw(st.lists(st.sampled_from(VARS), unique=True, min_size=1, max_size=2))
        return op, {v: draw(st.one_of(exprs(), coefs)) for v in keys}
    if op == "rename":
        return op, {draw(st.sampled_from(VARS)): draw(st.sampled_from(VARS))}
    return op, None


def apply(e: LinExpr, o: Oracle, op: str, arg) -> tuple[LinExpr, Oracle]:
    def lift(x):
        return Oracle.of(x) if isinstance(x, LinExpr) else Oracle({}, x)

    if op == "add":
        return e + arg, o + lift(arg)
    if op == "radd":
        return arg + e, lift(arg) + o
    if op == "sub":
        return e - arg, o + -lift(arg)
    if op == "rsub":
        return arg - e, lift(arg) + -o
    if op == "neg":
        return -e, -o
    if op == "mul":
        return e * arg, o.scale(Fraction(arg))
    if op == "rmul":
        return arg * e, o.scale(Fraction(arg))
    if op == "div":
        return e / arg, o.scale(1 / Fraction(arg))
    if op == "substitute":
        return e.substitute(arg), o.substitute({v: lift(x) for v, x in arg.items()})
    return e.rename(arg), o.rename(arg)


@given(exprs(), st.lists(steps(), max_size=6))
def test_arithmetic_agrees_with_fraction_oracle(start, chain):
    e, o = start, Oracle.of(start)
    assert_agrees(e, o)
    for op, arg in chain:
        e, o = apply(e, o, op, arg)
        assert_agrees(e, o)


@given(exprs(), st.booleans())
def test_normalised_constraints_are_integral(e, is_eq):
    c = (eq0 if is_eq else ge0)(e)
    expected = oracle_normalise(Oracle.of(e), is_eq)
    assert_agrees(c.expr, expected)
    if not c.expr.is_constant():
        assert all(type(v) is int for v in stored(c.expr))


@given(st.lists(exprs(), min_size=1, max_size=4), st.sampled_from(VARS[:3]))
def test_bounds_on_stay_exact(exprs_, var):
    poly = Polyhedron(VARS[:3], [ge0(e) for e in exprs_])
    expected = []
    for c in poly.constraints:
        o = Oracle.of(c.expr)
        a = o.terms.get(var)
        if a is not None:
            # a*var + rest >= 0  =>  var >= -rest/a (a > 0) or <= (a < 0).
            expected.append((a > 0, (-(o + Oracle({var: -a}, 0))).scale(1 / a)))
    lowers, uppers = poly.bounds_on(var)
    assert len(lowers) + len(uppers) == len(expected)
    it_lo, it_up = iter(lowers), iter(uppers)
    for is_lower, bound in expected:
        assert_agrees(next(it_lo if is_lower else it_up), bound)


def test_fractional_bound_is_a_fraction():
    # 2i - j >= 0  =>  i >= j/2: the bound's coefficient is really fractional.
    poly = Polyhedron(("i", "j"), [ge0(LinExpr({"i": 2, "j": -1}))])
    [lower], [] = poly.bounds_on("i")
    assert lower.coeff("j") == Fraction(1, 2) and type(lower.coeff("j")) is Fraction
    assert type(lower.constant) is int
