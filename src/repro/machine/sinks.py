"""Streaming trace sinks: the fusion protocol of the machine model.

Historically every machine component made its own pass over a fully
materialized trace, so a run's peak memory grew with its event count and
the trace was walked once per component. The streaming architecture fuses
the consumers instead: the executor flushes encoded events in bounded
NumPy chunks, and every component is a **sink** that folds each chunk into
persistent state. One pass, bounded memory — the trace itself never
exists as a whole object.

The protocol is deliberately tiny::

    class TraceSink(Protocol):
        def feed(self, chunk): ...      # fold one chunk into state
        def finish(self): ...           # return the accumulated result

Chunk types are stream-specific (duck-typed, per sink class):

- **encoded event chunks** — 1-D ``int64`` arrays straight from the
  executor (see :mod:`repro.exec.events` for the encodings). Consumed by
  :class:`~repro.machine.perfcounters.MemoryPipelineSink` and the branch
  predictor sinks.
- **address chunks** — 1-D ``int64`` byte-address arrays. Consumed by
  :class:`~repro.machine.cache.CacheSink`,
  :class:`~repro.machine.hierarchy.HierarchySink` and
  :class:`~repro.machine.tlb.TLBSink`.
- **access chunks** — ``(addresses, is_write)`` pairs. Consumed by
  :class:`~repro.machine.registers.RegisterFilterSink` and
  :class:`~repro.machine.writeback.WritebackSink`.

Sinks must be chunking-invariant: feeding one big chunk or many small ones
in the same order yields bit-identical results (the equivalence tests
exercise exactly this property).

Sinks are the machine model's only interface. There is no separate
whole-trace API: a caller holding a whole trace feeds it as one chunk,
and a caller that wants per-access outcomes keeps the masks ``feed``
returns.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.exec.events import DEFAULT_CHUNK_EVENTS

__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "TraceSink",
    "MaterializeSink",
]


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can consume a trace chunk-by-chunk."""

    def feed(self, chunk: Any) -> Any:
        """Fold one chunk into internal state.

        May return a per-chunk value (e.g. a miss mask) for sinks that are
        chained inside a fused pipeline; standalone callers ignore it.
        """
        ...

    def finish(self) -> Any:
        """Return the accumulated result of the whole stream."""
        ...


class MaterializeSink:
    """Collects encoded event chunks back into one array.

    For consumers that need the whole stream at once, such as a test
    comparing a streamed run against ``CompiledProgram.run``'s trace: the
    result is the exact array a materializing run produces.
    """

    def __init__(self, dtype=np.int64):
        self._dtype = dtype
        self._chunks: list[np.ndarray] = []

    def feed(self, chunk: np.ndarray) -> None:
        """Keep a copy of the chunk (the producer may reuse its buffer)."""
        self._chunks.append(np.asarray(chunk, dtype=self._dtype).copy())

    def finish(self) -> np.ndarray:
        """Concatenate every chunk in feed order."""
        if not self._chunks:
            return np.empty(0, dtype=self._dtype)
        return np.concatenate(self._chunks)
