"""The analysis-layer memo: caching, keys, interning, stats."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import CaseSplitError
from repro.poly import memo
from repro.poly.constraint import Constraint, Kind, ge, le
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

i, N = LinExpr.var("i"), LinExpr.var("N")


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Every test starts caching-enabled with empty analysis memos.

    Forcing the knob makes this module self-contained: it also passes
    under the CI job that exports ``REPRO_POLY_CACHE=off`` globally.
    Tests that exercise off-mode set the variable themselves.
    """
    monkeypatch.setenv("REPRO_POLY_CACHE", "on")
    memo.clear_memos()
    yield
    memo.clear_memos()


def _box(lo: int = 0, hi: int = 9) -> Polyhedron:
    return Polyhedron(("i",), [ge(i, lo), le(i, hi)])


class TestMemoize:
    def test_second_call_hits(self):
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert memo.memoize("t", ("k",), compute) == 42
        assert memo.memoize("t", ("k",), compute) == 42
        assert len(calls) == 1
        assert memo.stats()["ops"]["t"] == {"hit": 1, "miss": 1}

    def test_distinct_keys_distinct_entries(self):
        assert memo.memoize("t", ("a",), lambda: 1) == 1
        assert memo.memoize("t", ("b",), lambda: 2) == 2
        assert memo.stats()["memo_entries"] == 2

    def test_cacheable_error_reraised_on_hit(self):
        calls = []

        def compute():
            calls.append(1)
            raise CaseSplitError("needs a split")

        for _ in range(2):
            with pytest.raises(CaseSplitError, match="needs a split"):
                memo.memoize("t", ("k",), compute)
        assert len(calls) == 1

    def test_uncacheable_error_propagates_uncached(self):
        calls = []

        def compute():
            calls.append(1)
            raise ValueError("boom")

        for _ in range(2):
            with pytest.raises(ValueError):
                memo.memoize("t", ("k",), compute)
        assert len(calls) == 2

    def test_disabled_mode_computes_every_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLY_CACHE", "off")
        memo.clear_memos()
        calls = []
        for _ in range(2):
            memo.memoize("t", ("k",), lambda: calls.append(1))
        assert len(calls) == 2
        assert not memo.caching_enabled()

    def test_clear_memos_drops_entries_and_stats(self):
        memo.memoize("t", ("k",), lambda: 1)
        memo.clear_memos()
        s = memo.stats()
        assert s["memo_entries"] == 0 and s["ops"] == {}


class TestKeys:
    def test_env_key_forms(self):
        assert memo.env_key(None) == "-"
        assert memo.env_key(4) == "4"
        assert memo.env_key({"N": 8, "M": 2}) == "M=2,N=8"


class TestInterning:
    def test_equal_constraints_pointer_equal(self):
        assert ge(i, 3) is ge(i, 3)

    def test_equal_polyhedra_pointer_equal(self):
        assert _box() is _box()

    def test_interning_holds_when_memo_disabled(self, monkeypatch):
        # ``off`` bypasses only the analysis memo; hash-consing is part of
        # the one construction path.
        monkeypatch.setenv("REPRO_POLY_CACHE", "off")
        memo.clear_memos()
        assert _box() is _box()
        assert ge(i, 3) is ge(i, 3)

    def test_pickle_round_trip(self):
        p = _box()
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.constraints == p.constraints
        c = pickle.loads(pickle.dumps(ge(i, 3)))
        assert c == ge(i, 3) and isinstance(c, Constraint)
        assert c.kind is Kind.GE

    def test_fingerprint_is_order_sensitive_and_stable(self):
        a = Polyhedron(("i",), [ge(i, 0), le(i, N)])
        b = Polyhedron(("i",), [le(i, N), ge(i, 0)])
        assert a == b  # set semantics
        assert a.fingerprint() != b.fingerprint()  # structural identity
        assert a.fingerprint() == a.fingerprint()
        # Not derived from PYTHONHASHSEED-dependent hash(): a fixed value.
        assert len(a.fingerprint()) == 32
