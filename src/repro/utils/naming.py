"""Fresh-name generation for compiler passes.

Transformations that introduce loop variables (tile loops, copy loops) or
arrays (copy arrays ``H_A_k``) must not collide with names already used in
the program being rewritten.
"""

from __future__ import annotations

import itertools
import keyword
from collections.abc import Iterable


class NameGenerator:
    """Generates names guaranteed not to collide with a reserved set.

    The generator is deterministic: the same sequence of requests against the
    same reserved set yields the same names, which keeps transformed programs
    stable across runs (important for golden tests).
    """

    def __init__(self, reserved: Iterable[str] = ()):  # noqa: D107
        self._used: set[str] = set(reserved)

    def reserve(self, name: str) -> None:
        """Mark *name* as taken."""
        self._used.add(name)

    def fresh(self, base: str) -> str:
        """Return *base* if free, else ``base_2``, ``base_3``, ...

        Python keywords are never returned (generated programs compile to
        Python source). The returned name is recorded as used.
        """
        if base not in self._used and not keyword.iskeyword(base):
            self._used.add(base)
            return base
        for i in itertools.count(2):
            cand = f"{base}_{i}"
            if cand not in self._used:
                self._used.add(cand)
                return cand
        raise AssertionError("unreachable")

    def __contains__(self, name: str) -> bool:
        return name in self._used


def fresh_name(base: str, used: Iterable[str]) -> str:
    """One-shot helper: a name based on *base* not present in *used*."""
    return NameGenerator(used).fresh(base)
