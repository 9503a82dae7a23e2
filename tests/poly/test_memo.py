"""The analysis-layer memo: caching, keys, stats, and the structural
identity (pickling, fingerprints) of its keys."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import CaseSplitError
from repro.poly import memo
from repro.poly.constraint import Constraint, Kind, ge, le
from repro.poly.fm import project_onto
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from tests.poly.memo_oracle import MEMOIZE, bypass_memo

i, N = LinExpr.var("i"), LinExpr.var("N")


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Every test starts with the memo on and empty.

    Restoring the production ``memoize`` makes this module self-contained:
    it also passes under ``--memo-off``. Tests that exercise the bypass
    apply it themselves.
    """
    monkeypatch.setattr(memo, "memoize", MEMOIZE)
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
        bypass_memo(monkeypatch)
        calls = []
        for _ in range(2):
            memo.memoize("t", ("k",), lambda: calls.append(1))
        assert len(calls) == 2
        assert memo.stats()["memo_entries"] == 0

    def test_clear_memos_drops_entries_and_stats(self):
        memo.memoize("t", ("k",), lambda: 1)
        memo.clear_memos()
        s = memo.stats()
        assert s["memo_entries"] == 0 and s["ops"] == {}


class TestKeys:
    def test_env_key_forms(self):
        assert memo.env_key(None) == "-"
        assert memo.env_key({"N": 8, "M": 2}) == "M=2,N=8"


    def test_constraint_order_keys_separate_projections(self, monkeypatch):
        # Set-equal inputs in different constraint orders are two memo
        # entries, so a hit can never hand one the other's row order.
        j = LinExpr.var("j")
        cs = [ge(j, 1), le(j, N), ge(i, 0), le(i, j)]
        a = Polyhedron(("i", "j"), cs)
        b = Polyhedron(("i", "j"), [cs[1], cs[0], *cs[2:]])
        assert a == b
        got = [project_onto(p, ["j"]) for p in (a, b)]
        assert memo.stats()["ops"]["proj"] == {"hit": 0, "miss": 2}
        assert got[0].constraints != got[1].constraints
        bypass_memo(monkeypatch)
        for p, result in zip((a, b), got):
            assert result.constraints == project_onto(p, ["j"]).constraints


class TestInterning:
    """Structural identity of constraints and polyhedra, which the memo
    keys rely on."""

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
