"""The analysis-memo oracle: ``repro.poly.memo.memoize`` bypassed.

Every analysis operation in ``src`` calls the memo as ``memo.memoize(...)``,
looking the function up at call time, so replacing that one module
attribute makes every operation recompute through the same code. A build
with the memo bypassed must produce exactly what the memoised build does.

Used by ``pytest --memo-off`` (``tests/conftest.py``), the golden corpus
regeneration and the in-process differential tests.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.poly import memo

#: The production function, captured before any bypass is applied.
MEMOIZE = memo.memoize


def compute_directly(op: str, key: tuple, compute: Callable[[], Any]) -> Any:
    """``memo.memoize`` with the memo bypassed: a plain ``compute()``."""
    return compute()


def bypass_memo(monkeypatch=None) -> None:
    """Route every analysis operation around the memo: through
    *monkeypatch* (undone at teardown) when given, else for the process."""
    if monkeypatch is None:
        memo.memoize = compute_directly
    else:
        monkeypatch.setattr(memo, "memoize", compute_directly)
