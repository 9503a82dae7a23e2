"""Metric merge algebra: associative, commutative, counters only."""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry


def _snap(counters=()):
    reg = MetricsRegistry()
    for name, n in counters:
        reg.counter_add(name, n)
    return reg.snapshot()


def _fold(*snaps):
    """The snapshot of one registry that folded *snaps* in order, as the
    parent of a parallel sweep folds its workers'."""
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge_snapshot(snap)
    return reg.snapshot()


A = _snap(counters=[("hits", 3), ("misses", 1)])
B = _snap(counters=[("hits", 4), ("lat", 1.5)])
C = _snap(counters=[("misses", 2), ("corrupt", 1)])


class TestMergeAlgebra:
    def test_associative(self):
        assert _fold(_fold(A, B), C) == _fold(A, _fold(B, C))

    def test_commutative(self):
        assert _fold(A, B) == _fold(B, A)

    def test_merge_rules(self):
        m = _fold(A, B)
        assert m == {"counters": {"hits": 7, "lat": 1.5, "misses": 1}}  # counters add

    def test_identity(self):
        empty = MetricsRegistry().snapshot()
        assert _fold(A, empty) == A


class TestRegistry:
    def test_counter_value_default(self):
        reg = MetricsRegistry()
        assert reg.counter_value("never") == 0
        reg.counter_add("seen")
        assert reg.counter_value("seen") == 1

    def test_snapshot_is_json_sorted(self):
        import json

        snap = _snap(counters=[("b", 1), ("a", 1)])
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must not raise
