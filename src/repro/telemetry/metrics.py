"""Metrics registry: named counters.

Snapshots are plain JSON-able dicts (``{"counters": {...}}``), and
:meth:`MetricsRegistry.merge_snapshot` adds counters, so folding is
**associative and commutative**: per-worker snapshots from a parallel
sweep can be folded into the parent in any order (asserted by the
telemetry test-suite).
Time is never a metric: a span records it once (:mod:`.spans`).
"""

from __future__ import annotations

from typing import Any

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named counters with snapshot export (one per process)."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}

    def counter_add(self, name: str, n: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state: ``{"counters": {name: value}}``, sorted."""
        return {"counters": dict(sorted(self._counters.items()))}

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one (counters add)."""
        for k, v in snap.get("counters", {}).items():
            self._counters[k] = self._counters.get(k, 0) + v
