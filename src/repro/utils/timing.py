"""Lightweight wall-clock timing for experiment harnesses.

Following the optimisation workflow of the scientific-Python guides: measure
before and while optimising. These helpers are deliberately tiny — they are
for coarse per-experiment accounting, not micro-benchmarks (pytest-benchmark
handles those).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Context-manager stopwatch accumulating elapsed seconds.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None, "Timer.__exit__ without __enter__"
        self.elapsed += time.perf_counter() - self._start
        self._start = None

    def reset(self) -> None:
        """Zero the accumulated time."""
        self.elapsed = 0.0
        self._start = None

