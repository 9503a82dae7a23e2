"""Unit tests for LinExpr arithmetic and canonicalisation."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.poly.constraint import ge
from repro.poly.linexpr import LinExpr

SRC = Path(__file__).resolve().parents[2] / "src"


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        e = LinExpr({"x": 0, "y": 2})
        assert e.variables() == {"y"}

    def test_const_factory(self):
        assert LinExpr.const(5).constant == 5
        assert LinExpr.const(5).is_constant()

    def test_var_factory(self):
        e = LinExpr.var("i", 3)
        assert e.coeff("i") == 3
        assert e.coeff("j") == 0

    def test_rejects_non_string_names(self):
        with pytest.raises(TypeError):
            LinExpr({1: 2})

    def test_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            LinExpr({"x": 0.5})

    def test_fraction_coefficients_ok(self):
        e = LinExpr({"x": Fraction(1, 2)})
        assert e.coeff("x") == Fraction(1, 2)
        assert not e.is_integral()
        # An integral Fraction is stored as an int.
        assert type(LinExpr({"x": Fraction(4, 2)}).coeff("x")) is int


class TestArithmetic:
    def test_add(self):
        e = LinExpr.var("i") + LinExpr.var("j") + 3
        assert e.coeff("i") == 1 and e.coeff("j") == 1 and e.constant == 3

    def test_add_cancels(self):
        e = LinExpr.var("i") - LinExpr.var("i")
        assert e.is_constant() and e.constant == 0

    def test_neg(self):
        e = -(LinExpr.var("i") + 1)
        assert e.coeff("i") == -1 and e.constant == -1

    def test_rsub(self):
        e = 5 - LinExpr.var("i")
        assert e.coeff("i") == -1 and e.constant == 5

    def test_scalar_multiply(self):
        e = (LinExpr.var("i") + 2) * 3
        assert e.coeff("i") == 3 and e.constant == 6

    def test_divide(self):
        e = (LinExpr.var("i") * 4) / 2
        assert e.coeff("i") == 2 and type(e.coeff("i")) is int

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LinExpr.var("i") / 0


class TestSubstitution:
    def test_substitute_with_expr(self):
        e = LinExpr.var("i") + LinExpr.var("j")
        out = e.substitute({"i": LinExpr.var("k") + 1})
        assert out.coeff("k") == 1 and out.coeff("j") == 1 and out.constant == 1

    def test_substitute_with_constant(self):
        e = LinExpr.var("i") * 2
        assert e.substitute({"i": 3}).constant == 6

    def test_rename_merges(self):
        e = LinExpr({"i": 1, "j": 2})
        out = e.rename({"j": "i"})
        assert out.coeff("i") == 3

    def test_evaluate(self):
        e = LinExpr({"i": 2, "j": -1}, 4)
        assert e.evaluate({"i": 3, "j": 5}) == 5

    def test_evaluate_unbound_raises(self):
        with pytest.raises(KeyError):
            LinExpr.var("i").evaluate({})


class TestIdentity:
    def test_equal_expressions_hash_equal(self):
        a = LinExpr.var("i") + 1
        b = 1 + LinExpr.var("i")
        assert a == b and hash(a) == hash(b)

    def test_str_roundtrip_readable(self):
        e = LinExpr({"i": 1, "j": -2}, 3)
        text = str(e)
        assert "i" in text and "2*j" in text and "3" in text


class TestPickle:
    """A pickle carries the terms and constant, never a cached hash."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip(self, protocol):
        e = LinExpr({"i": 2, "j": Fraction(-1, 3)}, 5)
        hash(e)
        f = pickle.loads(pickle.dumps(e, protocol))
        assert f == e and hash(f) == hash(e) and f in {e}
        assert f.terms == e.terms and f.constant == e.constant
        c = ge(e, 0)
        assert pickle.loads(pickle.dumps(c, protocol)) in {c}

    def test_loads_under_another_hash_seed(self):
        """Pickled where ``hash("i")`` is one value, loaded where it is
        another: the loaded expression and constraint still find their
        fresh equals in a set."""
        build = "from repro.poly.linexpr import LinExpr; from repro.poly.constraint import ge; "
        dump = build + (
            "import pickle, sys; e = LinExpr.var('i') + 3; c = ge(e, 0); hash(e); hash(c); "
            "sys.stdout.write(pickle.dumps((e, c)).hex())"
        )
        load = build + (
            "import pickle, sys; e, c = pickle.loads(bytes.fromhex(sys.stdin.read())); "
            "f = LinExpr.var('i') + 3; print(e == f, e in {f}, c in {ge(f, 0)})"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        pickled = subprocess.run(
            [sys.executable, "-c", dump], env={**env, "PYTHONHASHSEED": "1"},
            capture_output=True, text=True, check=True,
        ).stdout
        loaded = subprocess.run(
            [sys.executable, "-c", load], env={**env, "PYTHONHASHSEED": "2"},
            input=pickled, capture_output=True, text=True, check=True,
        ).stdout
        assert loaded.split() == ["True", "True", "True"]
