"""Metrics registry: counters and duration histograms.

Snapshots are plain JSON-able dicts, and :func:`merge_snapshots` is
**associative and commutative**, so per-worker snapshots from a parallel
sweep can be folded into the parent in any order (asserted by the
telemetry test-suite):

- counters add;
- histograms add counts/totals per bucket and extremize min/max.

Histogram buckets are powers of two (the bucket of value ``v`` is
``frexp(v)``'s exponent), which is plenty for the "where did the time
go" questions this registry answers and keeps merges exact.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = ["Histogram", "MetricsRegistry", "merge_snapshots"]

#: Bucket index used for observations of exactly zero.
_ZERO_BUCKET = -1075  # below the smallest subnormal exponent


def _bucket(value: float) -> int:
    if value == 0:
        return _ZERO_BUCKET
    return math.frexp(abs(value))[1] - 1  # v in [2**b, 2**(b+1))


class Histogram:
    """Power-of-two bucketed distribution with exact count/total/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = _bucket(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            # JSON object keys must be strings.
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Histogram":
        h = cls()
        h.count = int(d["count"])
        h.total = float(d["total"])
        h.min = math.inf if d.get("min") is None else float(d["min"])
        h.max = -math.inf if d.get("max") is None else float(d["max"])
        h.buckets = {int(k): int(v) for k, v in d.get("buckets", {}).items()}
        return h

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n


class MetricsRegistry:
    """Thread-safe named counters/histograms with snapshot export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter_add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram()
            h.observe(value)

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state: ``{"counters", "histograms"}``."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "histograms": {
                    k: h.as_dict() for k, h in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one (see module
        docstring for the per-kind merge rules)."""
        with self._lock:
            for k, v in snap.get("counters", {}).items():
                self._counters[k] = self._counters.get(k, 0) + v
            for k, d in snap.get("histograms", {}).items():
                h = self._histograms.get(k)
                if h is None:
                    h = self._histograms[k] = Histogram()
                h.merge(Histogram.from_dict(d))


def merge_snapshots(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Pure snapshot merge (associative, commutative)."""
    reg = MetricsRegistry()
    reg.merge_snapshot(a)
    reg.merge_snapshot(b)
    return reg.snapshot()
