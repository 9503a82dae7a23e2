"""Trace-driven machine model of the paper's SGI Octane2 testbed.

The paper measures, via the SGI ``perfex`` tool: L1/L2 data-cache misses,
resolved and mispredicted branches, and graduated instructions, and converts
them to cycles with fixed typical costs (Sec. 4). This package reproduces
exactly those observables from the executor's traces. Every trace
consumer is a streaming :class:`~repro.machine.sinks.TraceSink` (``feed``
a chunk, ``finish`` for the totals), and that protocol is the only way
to drive the model:

- :mod:`repro.machine.layout` — column-major array placement in a flat
  address space, from which a traced run writes its byte addresses;
- :mod:`repro.machine.registers` — the register-window load filter;
- :mod:`repro.machine.cache` — set-associative LRU data-cache simulation;
- :mod:`repro.machine.hierarchy` — two-level (L1 + unified L2) filtering;
- :mod:`repro.machine.branch` — the per-site 2-bit branch predictor;
- :mod:`repro.machine.configs` — the Octane2 geometry and a scaled-down
  variant for tractable sweeps;
- :mod:`repro.machine.costmodel` — per-event cycle costs (9.92 / 162.55 /
  1 / 5) and the cycle aggregation;
- :mod:`repro.machine.perfcounters` — the end-to-end "perfex" report;
- :mod:`repro.machine.sinks` — the streaming :class:`TraceSink` protocol
  that fuses all trace consumers into one bounded-memory pass;
- :mod:`repro.machine.native` — the C memory core (register window,
  L1/L2 and write-back loops), compiled on first use;
- :mod:`repro.machine.writeback` — dirty-line write-back counts, read
  only by the write-back ablation (``repro.experiments.ablations``).

No oracle ships here: the per-access test oracles live in
``tests/machine/reference.py``, and ``tests/golden/corpus.json`` pins every
recipe's ``PerfReport`` as those oracles compute it.
"""

from repro.machine.cache import CacheConfig, CacheSink
from repro.machine.configs import MachineConfig, octane2, octane2_scaled
from repro.machine.costmodel import CostModel
from repro.machine.hierarchy import HierarchyResult, HierarchySink
from repro.machine.layout import MemoryLayout
from repro.machine.perfcounters import (
    MemoryPipelineSink,
    PerfReport,
    measure_streaming,
)
from repro.machine.sinks import (
    DEFAULT_CHUNK_EVENTS,
    MaterializeSink,
    TraceSink,
)

__all__ = [
    "CacheConfig",
    "CacheSink",
    "MachineConfig",
    "octane2",
    "octane2_scaled",
    "CostModel",
    "HierarchyResult",
    "HierarchySink",
    "MemoryLayout",
    "MemoryPipelineSink",
    "PerfReport",
    "measure_streaming",
    "TraceSink",
    "MaterializeSink",
    "DEFAULT_CHUNK_EVENTS",
]
