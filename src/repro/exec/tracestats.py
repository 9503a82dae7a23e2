"""Per-array statistics of a traced run.

Break the global perfex numbers down by array: which array's loads
dominate, how read/write-balanced each array is, and how many distinct
elements were touched (the footprint). Used by reports and examples to
attribute the machine-model observations to specific data structures.

:class:`ArrayStatsSink` is the one entry point. Pass it to
``CompiledProgram.run_streaming`` as the memory sink, or feed it a traced
run's ``trace.memory`` as one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec.events import decode_memory_events


@dataclass(frozen=True)
class ArrayStats:
    """Access statistics of one array in one run."""

    name: str
    loads: int
    stores: int
    distinct_elements: int

    @property
    def accesses(self) -> int:
        """Loads plus stores."""
        return self.loads + self.stores

    @property
    def reuse_factor(self) -> float:
        """Accesses per distinct element (1.0 = streaming, no reuse)."""
        return self.accesses / self.distinct_elements if self.distinct_elements else 0.0


class ArrayStatsSink:
    """Streaming per-array statistics over encoded memory-event chunks.

    Load/store counts accumulate with :func:`numpy.bincount`; distinct
    elements accumulate as per-array sets — bounded by the data footprint,
    not by the trace length, so the sink respects the streaming memory
    budget.
    """

    def __init__(self, array_ids: dict[str, int]):
        self._array_ids = dict(array_ids)
        size = max(self._array_ids.values(), default=-1) + 1
        self._loads = np.zeros(size, dtype=np.int64)
        self._stores = np.zeros(size, dtype=np.int64)
        self._elements: list[set[int]] = [set() for _ in range(size)]

    def feed(self, codes: np.ndarray) -> None:
        """Accumulate one chunk of encoded memory events."""
        aid, lin, rw = decode_memory_events(codes)
        size = len(self._loads)
        reads = rw == 0
        self._loads += np.bincount(aid[reads], minlength=size)
        self._stores += np.bincount(aid[~reads], minlength=size)
        order = np.argsort(aid, kind="stable")
        aid_sorted = aid[order]
        lin_sorted = lin[order]
        boundaries = np.flatnonzero(np.diff(aid_sorted)) + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), len(aid_sorted)]
        for start, end in zip(starts, ends):
            if start < end:
                array_id = int(aid_sorted[start])
                self._elements[array_id].update(
                    np.unique(lin_sorted[start:end]).tolist()
                )

    def finish(self) -> dict[str, ArrayStats]:
        """Per-array statistics, keyed by array name."""
        out: dict[str, ArrayStats] = {}
        for name, array_id in self._array_ids.items():
            out[name] = ArrayStats(
                name=name,
                loads=int(self._loads[array_id]),
                stores=int(self._stores[array_id]),
                distinct_elements=len(self._elements[array_id]),
            )
        return out

