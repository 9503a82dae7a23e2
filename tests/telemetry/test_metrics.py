"""Metric merge algebra: associative, commutative, lossless round-trips."""

from __future__ import annotations

import math

from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    _bucket,
    merge_snapshots,
)


def _snap(counters=(), observations=()):
    reg = MetricsRegistry()
    for name, n in counters:
        reg.counter_add(name, n)
    for name, v in observations:
        reg.observe(name, v)
    return reg.snapshot()


A = _snap(
    counters=[("hits", 3), ("misses", 1)],
    observations=[("lat", 0.5), ("lat", 2.0)],
)
B = _snap(
    counters=[("hits", 4)],
    observations=[("lat", 0.0), ("other", 1.5)],
)
C = _snap(
    counters=[("misses", 2), ("corrupt", 1)],
    observations=[("lat", 8.0)],
)


class TestMergeAlgebra:
    def test_associative(self):
        assert merge_snapshots(merge_snapshots(A, B), C) == merge_snapshots(
            A, merge_snapshots(B, C)
        )

    def test_commutative(self):
        assert merge_snapshots(A, B) == merge_snapshots(B, A)

    def test_merge_rules(self):
        m = merge_snapshots(A, B)
        assert m["counters"]["hits"] == 7  # counters add
        lat = m["histograms"]["lat"]
        assert lat["count"] == 3
        assert lat["total"] == 2.5
        assert lat["min"] == 0.0 and lat["max"] == 2.0

    def test_identity(self):
        empty = MetricsRegistry().snapshot()
        assert merge_snapshots(A, empty) == A


class TestHistogram:
    def test_buckets_are_power_of_two(self):
        assert _bucket(1.0) == 0
        assert _bucket(1.9) == 0
        assert _bucket(2.0) == 1
        assert _bucket(0.5) == -1
        assert _bucket(0.0) == _bucket(0)  # dedicated zero bucket

    def test_round_trip(self):
        h = Histogram()
        for v in (0.0, 0.25, 1.0, 1.5, 100.0):
            h.observe(v)
        back = Histogram.from_dict(h.as_dict())
        assert back.count == h.count
        assert back.total == h.total
        assert back.min == h.min and back.max == h.max
        assert back.buckets == h.buckets

    def test_empty_round_trip(self):
        back = Histogram.from_dict(Histogram().as_dict())
        assert back.count == 0
        assert back.min == math.inf and back.max == -math.inf

    def test_merge_equals_pooled_observation(self):
        xs, ys = [0.1, 0.7, 3.0], [0.0, 0.7, 9.0]
        a, b, pooled = Histogram(), Histogram(), Histogram()
        for v in xs:
            a.observe(v)
            pooled.observe(v)
        for v in ys:
            b.observe(v)
            pooled.observe(v)
        a.merge(b)
        assert a.as_dict() == pooled.as_dict()


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
