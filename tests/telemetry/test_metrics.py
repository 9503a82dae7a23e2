"""Metric merge algebra: associative, commutative, counters only."""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry, merge_snapshots


def _snap(counters=()):
    reg = MetricsRegistry()
    for name, n in counters:
        reg.counter_add(name, n)
    return reg.snapshot()


A = _snap(counters=[("hits", 3), ("misses", 1)])
B = _snap(counters=[("hits", 4), ("lat", 1.5)])
C = _snap(counters=[("misses", 2), ("corrupt", 1)])


class TestMergeAlgebra:
    def test_associative(self):
        assert merge_snapshots(merge_snapshots(A, B), C) == merge_snapshots(
            A, merge_snapshots(B, C)
        )

    def test_commutative(self):
        assert merge_snapshots(A, B) == merge_snapshots(B, A)

    def test_merge_rules(self):
        m = merge_snapshots(A, B)
        assert m == {"counters": {"hits": 7, "lat": 1.5, "misses": 1}}  # counters add

    def test_identity(self):
        empty = MetricsRegistry().snapshot()
        assert merge_snapshots(A, empty) == A


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
